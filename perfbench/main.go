// Command perfbench is the repository's serving benchmark. In one
// process it starts the serving tier through its public constructors
// (server.New, router.NewCluster), drives it with the client package
// over seeded request streams generated before timing, checks every
// answer bit for bit against the sequential reference, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload warm-binary --seed 1 --seconds 20 --trace 0
//
// Workloads, their server settings and latency limits live in
// perfbench/workloads.json. Each run also writes its result, with the
// host shape, to .bench_build/perfbench/results, and a traced run its
// spans to .bench_build/perfbench/spans; `--compare DIR_A DIR_B`
// compares two result directories and refuses when their host shapes
// differ.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"doconsider/internal/router"
	"doconsider/internal/server"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports. The final stdout line carries
// its first four fields; the result file carries all of it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Unbounded metrics are printed and kept in the result file but
	// carry no bound in BENCHMARK.json (see README.md).
	Unbounded map[string]metric `json:"unbounded_metrics,omitempty"`

	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Host     hostShape      `json:"host"`
	Server   server.Config  `json:"server_config"`
	Router   *router.Config `json:"router_config,omitempty"`
	Procs    int            `json:"server_procs"`
	Notes    []string       `json:"notes"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) unbounded(name string, v float64, unit string) {
	if r.Unbounded == nil {
		r.Unbounded = map[string]metric{}
	}
	r.Unbounded[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name from workloads.json")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and span files")
	compare := fs.Bool("compare", false, "compare the result directories given as the two arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareResults(fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	pinEnvironment()
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := cfg.workload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := execute(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace, *out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Seconds = *seconds
	if err := writeResult(*out, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: run is not correct; see the notes above")
		return 1
	}
	return 0
}

// pinEnvironment makes planner decisions reproducible across hosts and
// keeps the run inside its checkout: the planner uses its canonical
// cost model instead of a per-machine calibration file in the user's
// cache directory, and the process-wide strategy and fusion overrides
// are cleared so workloads.json alone configures the servers.
func pinEnvironment() {
	os.Setenv("DOCONSIDER_CALIBRATION", "off")
	os.Unsetenv("DOCONSIDER_STRATEGY")
	os.Unsetenv("DOCONSIDER_FUSE")
}

func execute(w *workload, seed int64, dur time.Duration, trace int, out string) (*result, error) {
	suite, err := loadSuite(seed, rhsPerProblem)
	if err != nil {
		return nil, err
	}
	if err := selfTestCheck(suite); err != nil {
		return nil, err
	}
	if err := selfTestStall(); err != nil {
		return nil, err
	}
	warmup := warmupTime
	// Every session replays its clients' streams from the start, so a
	// stream need only cover the longest session: a traced run's halves.
	longest := dur / measuredSessions
	if trace == 1 {
		longest = dur / 2
	}
	specs := make([]streamSpec, w.clients())
	for i := range specs {
		specs[i] = streamSpec{
			n:          int(float64(w.MaxRate) * (warmup + longest).Seconds()),
			width:      batchWidth,
			driftRate:  w.DriftRate,
			driftEdits: w.DriftEdits,
		}
		if w.openLoop() && i == 1 {
			specs[i].width = w.FloodBatch
		}
	}
	streams, err := genStreams(seed, suite, specs)
	if err != nil {
		return nil, err
	}
	host, err := readHost()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}, Workload: w.Name, Seed: seed,
		Trace: trace, Host: host, Server: w.Server}
	if w.Replicas > 1 {
		res.Router = &w.Router
	}
	r := &run{w: w, seed: seed, suite: suite, epoch: time.Now(), ctx: context.Background()}
	if trace == 1 {
		err = r.traced(res, streams, warmup, dur, out)
	} else {
		err = r.endToEnd(res, streams, warmup, dur)
	}
	return res, err
}

// endToEnd is the untraced run. It sets up setupRepeats stacks; the
// last measuredSessions of them each carry an equal share of the
// measured phase after their own warm-up, so the figures are medians
// over independent stacks as well as over time. Every session's answers
// are checked once its stack is closed, and before its figures are
// taken, so a wrong answer counts as failed.
func (r *run) endToEnd(res *result, streams [][]op, warmup, dur time.Duration) error {
	var setups, rss []float64
	var parts []measured
	var checked checkTotals
	for i := 0; i < setupRepeats; i++ {
		s, d, err := r.setup(r.w.Server, streams)
		if err != nil {
			if s != nil {
				_ = s.st.close()
			}
			return err
		}
		setups = append(setups, d.Seconds())
		measuring := i >= setupRepeats-measuredSessions
		var t0 int64
		if measuring {
			var peak float64
			t0, peak, err = r.measureSession(res, s, warmup, dur/measuredSessions, &checked)
			rss = append(rss, peak)
		}
		if cerr := s.st.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := checked.add(r, s); err != nil {
			return err
		}
		if measuring {
			m, err := r.measure(s, t0)
			if err != nil {
				return err
			}
			parts = append(parts, m)
		}
	}
	m := combine(parts)
	if m.beyond < 10 {
		return fmt.Errorf("only %d latency samples lie beyond p99 (need 10); measure longer", m.beyond)
	}
	checked.judge(res, m)

	res.set("setup_s", median(setups), "s")
	res.set("throughput_solves_per_s", m.throughput, "1/s")
	res.set("latency_p50_ms", m.p50, "ms")
	res.unbounded("latency_p99_ms", m.p99, "ms")
	res.set("slo_met_share", share(m.sloMet, m.population), "ratio")
	res.set("peak_rss_mb", median(rss), "MiB")
	res.note("setup: %d repeats, %.4f s median (%.4f)", len(setups), median(setups), setups)
	res.note("measured: %d sessions of %s; peak RSS per session %.1f MiB", measuredSessions, dur/measuredSessions, rss)
	res.note("latency population: %d requests, %d answered; p50 and p99 are medians over %d blocks, each p99 with %d samples beyond it",
		m.population, len(m.lat), m.blocks, m.beyond)
	sessionP99 := make([]float64, len(parts))
	for i, p := range parts {
		sessionP99[i], _ = quantile(append([]float64(nil), p.lat...), 0.99)
	}
	res.note("throughput per window (solves/s): %.0f", m.windows)
	res.note("latency p99 per session (ms): %.2f", sessionP99)
	res.note("attempted %d: ok %d, refused %d, failed %d", m.attempted, m.ok, m.refused, m.failed)
	res.unbounded("failed_share", share(m.failed, m.attempted), "ratio")
	res.unbounded("refused_share", share(m.refused, m.attempted), "ratio")
	return nil
}

// measureSession warms a set-up session, drives its measured phase for
// d and counts its shed accounting into checked. It returns when the
// measured phase started and the peak resident set during it.
func (r *run) measureSession(res *result, s *session, warmup, d time.Duration, checked *checkTotals) (int64, float64, error) {
	procs, err := serverProcs(s.st)
	if err != nil {
		return 0, 0, err
	}
	res.Procs = procs
	if err := r.drive(s, phaseWarmup, warmup); err != nil {
		return 0, 0, err
	}
	tBefore := r.now()
	before, err := fetchStats(r.ctx, s.st)
	if err != nil {
		return 0, 0, err
	}
	if err := resetPeakRSS(); err != nil {
		return 0, 0, fmt.Errorf("resetting the peak resident set: %w", err)
	}
	t0 := r.now()
	if err := r.drive(s, phaseMeasure, d); err != nil {
		return 0, 0, err
	}
	after, err := fetchStats(r.ctx, s.st)
	if err != nil {
		return 0, 0, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return 0, 0, err
	}
	checked.addShed(s, tBefore, before, after)
	return t0, rss, nil
}

// measured summarizes the measured phase of one or more sessions.
type measured struct {
	attempted, ok, refused, failed int
	population, sloMet             int
	windows                        []float64 // solves/s per throughput window
	lat                            []float64 // latency population's answers, ms, in reply order
	// Set by combine: medians over windows and latency blocks.
	throughput, p50, p99 float64
	blocks, beyond       int // latency blocks, fewest samples beyond a block's p99
}

// Steadiness: a run reports medians over parts of its measured phase,
// so a disturbance confined to one part does not move the result.
// Throughput is the median over throughputWindows equal time windows
// per session. p50 and p99 are medians over the block medians and block
// p99s of the latency samples cut, in reply order, into equal blocks of
// at least latencyBlock samples, so each block's p99 has at least 10
// samples beyond it.
const (
	throughputWindows = 10
	latencyBlock      = 1000
)

// Shape of an untraced run.
const (
	setupRepeats     = 9 // stacks set up; setup_s is the median of their set-up times
	measuredSessions = 8 // the last stacks, which share the measured phase
	warmupTime       = 300 * time.Millisecond
)

// measure collects the figures of a session's measured phase, which
// started at t0. It runs after the answer check, which marks wrong
// answers failed. Latency covers the latency population's answered
// requests: from send to reply in a closed loop, from the due time in
// the open loop. Refused and failed requests count as missing the
// latency limit.
func (r *run) measure(s *session, t0 int64) (measured, error) {
	var m measured
	type sample struct {
		end int64
		ms  float64
	}
	var lat []sample
	type done struct {
		end    int64
		solves int
	}
	var answers []done
	last := t0
	for _, c := range s.clients {
		for i := range c.recs {
			rc := &c.recs[i]
			if rc.phase != phaseMeasure {
				continue
			}
			m.attempted++
			last = max(last, rc.end)
			switch rc.status {
			case statusOK:
				m.ok++
				answers = append(answers, done{rc.end, c.ops[rc.op].width})
			case statusRefused:
				m.refused++
			default:
				m.failed++
			}
			if !c.latency {
				continue
			}
			m.population++
			if rc.status != statusOK {
				continue
			}
			from := rc.start
			if r.w.openLoop() {
				from = rc.due
			}
			ms := nsToMs(rc.end - from)
			lat = append(lat, sample{rc.end, ms})
			if ms <= r.w.SLOMs {
				m.sloMet++
			}
		}
	}
	if m.ok+m.refused+m.failed != m.attempted {
		return m, fmt.Errorf("accounting: ok %d + refused %d + failed %d != attempted %d", m.ok, m.refused, m.failed, m.attempted)
	}
	if last > t0 {
		win := float64(last-t0) / throughputWindows
		m.windows = make([]float64, throughputWindows)
		for _, a := range answers {
			w := min(int(float64(a.end-t0)/win), throughputWindows-1)
			m.windows[w] += float64(a.solves)
		}
		for w := range m.windows {
			m.windows[w] /= win / 1e9
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i].end < lat[j].end })
	for _, x := range lat {
		m.lat = append(m.lat, x.ms)
	}
	return m, nil
}

// combine pools the figures of sessions, given in the order they ran,
// and takes the medians.
func combine(parts []measured) measured {
	var m measured
	for _, p := range parts {
		m.attempted += p.attempted
		m.ok += p.ok
		m.refused += p.refused
		m.failed += p.failed
		m.population += p.population
		m.sloMet += p.sloMet
		m.windows = append(m.windows, p.windows...)
		m.lat = append(m.lat, p.lat...)
	}
	m.throughput = median(append([]float64(nil), m.windows...))
	m.blocks = max(1, len(m.lat)/latencyBlock)
	m.beyond = len(m.lat)
	var p50s, p99s []float64
	for b := 0; b < m.blocks; b++ {
		block := append([]float64(nil), m.lat[b*len(m.lat)/m.blocks:(b+1)*len(m.lat)/m.blocks]...)
		p50s = append(p50s, median(block))
		p99, beyond := quantile(block, 0.99)
		p99s = append(p99s, p99)
		m.beyond = min(m.beyond, beyond)
	}
	m.p50, m.p99 = median(p50s), median(p99s)
	return m
}

// checkTotals accumulates the answer check and the shed accounting
// over every session of a run.
type checkTotals struct {
	checked, wrong           int
	firstWrong, firstFailure string
	refused                  int    // honest 429/503 replies the clients counted
	shed                     uint64 // the servers' shed delta over the same requests
}

func (t *checkTotals) add(r *run, s *session) error {
	ck := &checker{suite: r.suite}
	results := make([]checkResult, len(s.clients))
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = ck.check(c)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, res := range results {
		t.checked += res.checked
		t.wrong += res.wrong
		if t.firstWrong == "" {
			t.firstWrong = res.firstWrong
		}
		if c := s.clients[i]; t.firstFailure == "" && c.failMsg != "" {
			t.firstFailure = c.name + ": " + c.failMsg
		}
	}
	return nil
}

// judge folds the checks into the result. A wrong answer in any phase,
// a failed measured request (wrong answers included), or shed
// accounting that does not add up makes the run incorrect.
func (t *checkTotals) judge(res *result, m measured) {
	res.Attempted = m.attempted
	res.Failed = m.failed
	res.note("answer check: %d answers checked bit for bit, %d wrong", t.checked, t.wrong)
	res.note("shed accounting: clients counted %d refused replies, servers shed %d", t.refused, t.shed)
	if t.wrong > 0 {
		res.Correct = false
		res.note("first wrong answer: %s", t.firstWrong)
	}
	if t.firstFailure != "" {
		res.note("first failure: %s", t.firstFailure)
	}
	if m.failed > 0 || uint64(t.refused) != t.shed {
		res.Correct = false
	}
}

// addShed counts the client's honest 429/503 replies to requests sent
// after from, when the before snapshot was taken, and the servers' shed
// delta between the snapshots; judge requires the two to be equal.
func (t *checkTotals) addShed(s *session, from int64, before, after []server.StatsResponse) {
	for _, c := range s.clients {
		for _, rc := range c.recs {
			if rc.start >= from && rc.status == statusRefused {
				t.refused++
			}
		}
	}
	t.shed += sumStats(before, after, func(st server.StatsResponse) uint64 { return st.Shed })
}

// fetchStats reads /v1/stats from every server of the stack.
func fetchStats(ctx context.Context, st *stack) ([]server.StatsResponse, error) {
	var out []server.StatsResponse
	for _, u := range st.replicaURLs() {
		var s server.StatsResponse
		if err := adminClient(u).GetJSON(ctx, "/v1/stats", &s); err != nil {
			return nil, fmt.Errorf("stats of %s: %w", u, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// sumStats sums a counter's delta over the servers of a stack. The
// replica set does not change during a run, so the snapshots align.
func sumStats(before, after []server.StatsResponse, f func(server.StatsResponse) uint64) uint64 {
	var d uint64
	for i := range after {
		d += f(after[i]) - f(before[i])
	}
	return d
}

// serverProcs reads the processors per plan the servers actually use
// from the planner's decision records of the registration builds.
func serverProcs(st *stack) (int, error) {
	stats, err := fetchStats(context.Background(), st)
	if err != nil {
		return 0, err
	}
	for _, s := range stats {
		for _, d := range s.Planner.Decisions {
			return d.Procs, nil
		}
	}
	return 0, fmt.Errorf("no planner decision recorded after registration")
}

func writeResult(dir string, res *result) error {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s_seed%d_trace%d_%d.json", res.Workload, res.Seed, res.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), buf, 0o644)
}

// printResult prints the human-readable report, then the one-line JSON
// result as the last line.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "perfbench %s seed %d, %.0f s, trace %d\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Fprintf(w, "host: %s\n", res.Host)
	fmt.Fprintf(w, "server procs %d\n", res.Procs)
	for _, n := range res.Notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	names = names[:0]
	for n := range res.Unbounded {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s (no bound)\n", n, res.Unbounded[n].Value, res.Unbounded[n].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintln(w, string(line))
}
