package server

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"

	"doconsider/internal/executor"
)

// TestServerInlinePasses: when the process has fewer processors than a
// plan's P while the plan is built, its planner-chosen parallel passes
// run inline. The wire still names the plan's strategy, while /metrics,
// the /v1/stats coalesce block and the request's trace record count and
// mark the inline pass. With processors to spare the same pass runs on
// its pool.
func TestServerInlinePasses(t *testing.T) {
	for _, tc := range []struct {
		gomaxprocs int
		inline     bool
	}{{1, true}, {64, false}} {
		prev := runtime.GOMAXPROCS(tc.gomaxprocs)
		_, ts := newTestServer(t, Config{Procs: 4})
		l := testFactor(60)
		resp, sr := postSolve(t, ts.URL, solveBody(t, l, true, [][]float64{randVec(l.N, 1)}))
		runtime.GOMAXPROCS(prev)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GOMAXPROCS=%d: status %d", tc.gomaxprocs, resp.StatusCode)
		}
		if sr.Strategy == "" || sr.Strategy == executor.Sequential.String() {
			t.Fatalf("GOMAXPROCS=%d: planner chose %q for a 60x60 mesh at P=4; want a parallel strategy", tc.gomaxprocs, sr.Strategy)
		}

		want := 0.0
		if tc.inline {
			want = 1
		}
		if got := metricValue(t, ts.URL, "loops_coalesce_inline_passes_total"); got != want {
			t.Fatalf("GOMAXPROCS=%d: loops_coalesce_inline_passes_total = %v, want %v", tc.gomaxprocs, got, want)
		}
		var st StatsResponse
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Coalesce.Passes != 1 || st.Coalesce.InlinePasses != uint64(want) {
			t.Fatalf("GOMAXPROCS=%d: coalesce stats = %+v, want 1 pass, %v inline", tc.gomaxprocs, st.Coalesce, want)
		}
		var tr *TraceJSON
		traces := getTraces(t, ts.URL+"/v1/trace")
		for i := range traces.Traces {
			if traces.Traces[i].TraceID == sr.TraceID {
				tr = &traces.Traces[i]
			}
		}
		if tr == nil {
			t.Fatalf("GOMAXPROCS=%d: trace %s not in /v1/trace", tc.gomaxprocs, sr.TraceID)
		}
		if tr.Inline != tc.inline || tr.Strategy != sr.Strategy {
			t.Fatalf("GOMAXPROCS=%d: trace inline=%v strategy=%q, want inline=%v strategy=%q",
				tc.gomaxprocs, tr.Inline, tr.Strategy, tc.inline, sr.Strategy)
		}
	}
}

// TestSolveFrameZeroAllocInline pins the warm binary path at 0 allocs/op
// on both sides of the inline rule. The plans are built at GOMAXPROCS
// 1, so a planner-chosen parallel plan at P=4 runs every pass inline,
// and a pinned pooled plan runs every pass on its pool.
func TestSolveFrameZeroAllocInline(t *testing.T) {
	for _, kind := range []string{KindAuto, executor.Pooled.String()} {
		prev := runtime.GOMAXPROCS(1)
		s, frame := warmBinaryServerCfg(t, 60, Config{Procs: 4, Kind: kind, Coalesce: CoalesceConfig{Window: 0}})
		runtime.GOMAXPROCS(prev)
		before := s.Stats().Coalesce.InlinePasses
		ctx := context.Background()
		const runs = 100
		allocs := testing.AllocsPerRun(runs, func() {
			st := s.getReqState()
			if _, status := s.SolveFrame(ctx, frame, st); status != 200 {
				t.Fatalf("kind %s: status %d", kind, status)
			}
			s.putReqState(st)
		})
		if allocs != 0 {
			t.Fatalf("kind %s: warm binary request = %v allocs/op, want 0", kind, allocs)
		}
		// AllocsPerRun adds one warm-up call to its runs.
		want := uint64(0)
		if kind == KindAuto {
			want = runs + 1
		}
		if inline := s.Stats().Coalesce.InlinePasses - before; inline != want {
			t.Fatalf("kind %s: %d inline passes, want %d", kind, inline, want)
		}
	}
}
