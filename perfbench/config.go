package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"

	"doconsider/internal/router"
	"doconsider/internal/server"
)

// workloads.json is the benchmark's own record of what differs between
// workloads: the server and router configuration of each, its latency
// limit, the latency tenant's arrival rate, and which layers it should
// and should not move; and the held-out seed. BENCHMARK.json names the
// workloads; this file defines them.
//
//go:embed workloads.json
var workloadsJSON []byte

type suiteConfig struct {
	HeldOutSeed int64      `json:"held_out_seed"`
	Workloads   []workload `json:"workloads"`
}

// Settings shared by every workload.
const (
	batchWidth    = 4  // RHS per request, except the tenant-mix flood
	rhsPerProblem = 32 // seeded right-hand-side pool per suite problem
)

// workload is one traffic mix. Zero server and router fields take the
// package defaults, as a user constructing them would get. Each entry
// in workloads.json also records why the workload exists and which
// layers it should and should not move; the program does not read those.
type workload struct {
	Name     string `json:"name"`
	Wire     string `json:"wire"`     // "binary" or "json"
	Replicas int    `json:"replicas"` // 1: server.New; >1: router.NewCluster
	// DriftRate is the share of closed-loop requests that drift their
	// factor by DriftEdits row edits (base_fp+edits).
	DriftRate  float64 `json:"drift_rate,omitempty"`
	DriftEdits int     `json:"drift_edits,omitempty"`
	// LatencyRate > 0 selects the open-loop tenant mix: a latency-class
	// tenant on a fixed schedule of LatencyRate requests per second,
	// beside a batch-class tenant flooding FloodBatch-wide requests.
	LatencyRate float64 `json:"latency_rate_per_s,omitempty"`
	FloodBatch  int     `json:"flood_batch,omitempty"`
	// SLOMs is the latency limit behind slo_met_share.
	SLOMs float64 `json:"slo_ms"`
	// MaxRate bounds the requests one client can issue per second; the
	// seeded stream is generated to this length before timing.
	MaxRate int           `json:"max_requests_per_client_per_s"`
	Server  server.Config `json:"server"`
	Router  router.Config `json:"router"`
}

func (w *workload) openLoop() bool { return w.LatencyRate > 0 }

// clients is the number of load goroutines, each with its own
// connection: nproc closed-loop clients, or the latency and batch
// tenants of the open-loop mix.
func (w *workload) clients() int {
	if w.openLoop() {
		return 2
	}
	return runtime.NumCPU()
}

func loadConfig() (*suiteConfig, error) {
	var cfg suiteConfig
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for i := range cfg.Workloads {
		w := &cfg.Workloads[i]
		if w.Wire != "binary" && w.Wire != "json" {
			return nil, fmt.Errorf("workloads.json: %s: unknown wire %q", w.Name, w.Wire)
		}
		if w.Replicas < 1 || w.MaxRate < 1 || w.SLOMs <= 0 {
			return nil, fmt.Errorf("workloads.json: %s: replicas, max rate and slo_ms must be positive", w.Name)
		}
		if err := w.Server.Validate(); err != nil {
			return nil, fmt.Errorf("workloads.json: %s: %w", w.Name, err)
		}
	}
	return &cfg, nil
}

func (c *suiteConfig) workload(name string) (*workload, error) {
	for i := range c.Workloads {
		if c.Workloads[i].Name == name {
			return &c.Workloads[i], nil
		}
	}
	names := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
