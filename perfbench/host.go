package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostShape records what a result depends on besides the code: results
// from different shapes are not comparable.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
	// Commit is the git revision run.sh found, or "unknown" in a
	// checkout without git metadata; SourceDigest identifies the code
	// either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func (h hostShape) String() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, %s, %q, commit %s, source %s",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.CPUModel, h.Commit, h.SourceDigest)
}

// comparableWith reports whether two results were measured on the same
// host shape (the code may differ).
func (h hostShape) comparableWith(o hostShape) bool {
	return h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion &&
		h.CPUModel == o.CPUModel && h.OSArch == o.OSArch
}

func readHost() (hostShape, error) {
	h := hostShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	digest, err := sourceDigest(".")
	if err != nil {
		return h, fmt.Errorf("digesting the sources: %w", err)
	}
	h.SourceDigest = digest
	return h, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root, skipping
// the benchmark's own directory and hidden directories, in path order.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || p == filepath.Join(root, "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// compareResults compares the end-to-end metrics of two directories of
// result files (a parent's runs, then a change's) against the bounds in
// BENCHMARK.json. Exit status: 0 no metric worse than its bound, 1 a
// regression, 2 usage or read error, 3 refused because the host shapes
// differ.
func compareResults(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench --compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR")
		return 2
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var sides [2][]*result
	for i, dir := range args {
		if sides[i], err = readResults(dir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if len(sides[i]) == 0 {
			fmt.Fprintf(stderr, "perfbench: no end-to-end results in %s\n", dir)
			return 2
		}
	}
	shape := sides[0][0].Host
	for _, side := range sides {
		for _, r := range side {
			if !r.Host.comparableWith(shape) {
				fmt.Fprintf(stdout, "refused: host shapes differ (%s) vs (%s)\n", shape, r.Host)
				return 3
			}
		}
	}
	workloads := map[string]bool{}
	for _, side := range sides {
		for _, r := range side {
			workloads[r.Workload] = true
		}
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	worse := false
	fmt.Fprintf(stdout, "%-14s %-26s %12s %12s %8s %6s\n", "workload", "metric", "parent", "change", "change%", "bound%")
	for _, wl := range names {
		for _, b := range bounds {
			var med [2]float64
			var n [2]int
			for i, side := range sides {
				var xs []float64
				for _, r := range side {
					if m, ok := r.Metrics[b.Name]; ok && r.Workload == wl {
						xs = append(xs, m.Value)
					}
				}
				med[i], n[i] = median(xs), len(xs)
			}
			if n[0] == 0 || n[1] == 0 || med[0] == 0 {
				fmt.Fprintf(stdout, "%-14s %-26s unresolved: %d and %d runs\n", wl, b.Name, n[0], n[1])
				continue
			}
			rel := (med[1] - med[0]) / med[0]
			verdict := ""
			if (b.Better == "lower" && rel > b.Bound) || (b.Better == "higher" && -rel > b.Bound) {
				verdict, worse = "  WORSE", true
			}
			fmt.Fprintf(stdout, "%-14s %-26s %12.6g %12.6g %+7.2f%% %5.1f%%%s\n",
				wl, b.Name, med[0], med[1], 100*rel, 100*b.Bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// readResults loads the end-to-end (untraced) results in dir.
func readResults(dir string) ([]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace == 0 {
			out = append(out, &r)
		}
	}
	return out, nil
}
