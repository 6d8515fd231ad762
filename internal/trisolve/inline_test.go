package trisolve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/problems"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/synthetic"
)

// manyProcs is a processor count no test plan's P exceeds.
const manyProcs = 1 << 20

// setHostProcs makes plans built until t ends see n processors (later
// calls stack; cleanup unwinds them in reverse). Tests in this package
// run serially, so no build reads hostProcs while it is swapped.
func setHostProcs(t testing.TB, n int) {
	prev := hostProcs
	hostProcs = func() int { return n }
	t.Cleanup(func() { hostProcs = prev })
}

// skipIfStrategyPinned skips an inline test when DOCONSIDER_STRATEGY
// pins every plan: pinned plans never run inline.
func skipIfStrategyPinned(t *testing.T) {
	t.Helper()
	if os.Getenv("DOCONSIDER_STRATEGY") != "" {
		t.Skip("DOCONSIDER_STRATEGY pins every plan; inline passes apply to planner-chosen plans only")
	}
}

// sumClock is a LevelClock that only totals what it receives.
type sumClock struct{ ns atomic.Int64 }

func (c *sumClock) Add(_ int32, ns int64) { c.ns.Add(ns + 1) }

// checkPass asserts a pass ran the way its plan says: on the plan's P
// processors, or inline on one.
func checkPass(t *testing.T, what string, m executor.Metrics, err error, inline bool, procs int) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if m.Inline != inline {
		t.Fatalf("%s: Inline = %v, want %v", what, m.Inline, inline)
	}
	want := procs
	if inline {
		want = 1
	}
	if m.P != want {
		t.Fatalf("%s: ran on %d processors, want %d", what, m.P, want)
	}
}

// TestInlineDifferential solves every suite problem forward and
// backward, row-wise and fused, through every pass entry point the
// serving tier uses — once with processors to spare (the planner's
// parallel strategy runs) and once on a one-processor process (every
// pass runs inline) — and requires both to match the sequential
// reference bit for bit.
func TestInlineDifferential(t *testing.T) {
	skipIfStrategyPinned(t)
	const procs, k = 4, 3
	for _, name := range problems.TriSolveNames() {
		l := problems.MustGet(name).L
		for _, lower := range []bool{true, false} {
			tri := l
			if !lower {
				tri = l.Transpose()
			}
			n := tri.N
			other := scaleValues(tri, 0.5)
			rng := rand.New(rand.NewSource(int64(n)))
			bs := randomRHS(rng, n, k)
			want := make([][]float64, k)
			wantOther := make([][]float64, k)
			for j := range bs {
				want[j] = refSolve(t, tri, lower, bs[j])
				wantOther[j] = refSolve(t, other, lower, bs[j])
			}
			for _, fuse := range []FuseMode{FuseOff, FuseForce} {
				for _, host := range []int{manyProcs, 1} {
					setHostProcs(t, host)
					inline := host == 1
					what := func(entry string) string {
						return fmt.Sprintf("%s lower=%v fused=%v inline=%v: %s", name, lower, fuse == FuseForce, inline, entry)
					}
					plan, err := NewPlan(tri, lower, WithProcs(procs), WithModel(planner.Default()), WithFusion(fuse))
					if err != nil {
						t.Fatalf("%s: %v", what("NewPlan"), err)
					}
					if plan.Kind == executor.Sequential {
						t.Fatalf("%s: planner chose sequential; no pass can run inline", what("NewPlan"))
					}
					if (fuse == FuseForce) != (plan.Fusion() != nil) {
						t.Fatalf("%s: fused = %v", what("NewPlan"), plan.Fusion() != nil)
					}
					sv := plan.Bind()
					check := func(entry string, got, ref [][]float64) {
						t.Helper()
						for j := range ref {
							assertBitIdentical(t, got[j], ref[j], what(entry))
						}
					}

					xs := randomRHS(rng, n, k)
					m, err := plan.SolveBatch(xs, bs)
					checkPass(t, what("SolveBatch"), m, err, inline, procs)
					check("SolveBatch", xs, want)

					group := []BatchProblem{
						{L: tri, Xs: randomRHS(rng, n, k), Bs: bs},
						{L: other, Xs: randomRHS(rng, n, k), Bs: bs},
					}
					m, err = plan.SolveGroup(group)
					checkPass(t, what("SolveGroup"), m, err, inline, procs)
					check("SolveGroup", group[0].Xs, want)
					check("SolveGroup member 2", group[1].Xs, wantOther)

					xs = randomRHS(rng, n, k)
					m, err = sv.Solve(context.Background(), xs, bs)
					checkPass(t, what("BatchSolver.Solve"), m, err, inline, procs)
					check("BatchSolver.Solve", xs, want)

					xs = randomRHS(rng, n, k)
					var clock sumClock
					m, err = sv.SolveTimed(context.Background(), xs, bs, &clock)
					checkPass(t, what("SolveTimed"), m, err, inline, procs)
					check("SolveTimed", xs, want)
					if clock.ns.Load() == 0 {
						t.Fatalf("%s: the level clock saw no time", what("SolveTimed"))
					}
					if m.Executed != int64(n) {
						t.Fatalf("%s: executed %d rows, want %d", what("SolveTimed"), m.Executed, n)
					}
					plan.Close()
				}
			}
		}
	}
}

// meshFactor is a 30x30 mesh factor, for which the default model picks
// a parallel strategy at P=4.
func meshFactor() *sparse.CSR { return stencil.Laplace2D(30, 30).LowerWithDiag() }

// inlinePlan builds an adaptive plan at P=4 over the mesh factor and
// checks the planner chose a parallel strategy for it.
func inlinePlan(t *testing.T) *Plan {
	t.Helper()
	skipIfStrategyPinned(t)
	p, err := NewPlan(meshFactor(), true, WithProcs(4), WithModel(planner.Default()), WithFusion(FuseOff))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind == executor.Sequential {
		t.Fatal("planner chose sequential for a 30x30 mesh at P=4; no pass can run inline")
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestInlineRule pins when a plan runs inline: exactly when its P
// exceeds the processors the process had when the plan was built. With
// processors to spare, concurrent passes all run on their pools.
func TestInlineRule(t *testing.T) {
	for _, tc := range []struct {
		host   int
		inline bool
	}{{1, true}, {3, true}, {4, false}, {8, false}} {
		setHostProcs(t, tc.host)
		p := inlinePlan(t)
		m, err := p.execute(context.Background(), func(int32) {})
		checkPass(t, fmt.Sprintf("P=4 on %d processors", tc.host), m, err, tc.inline, 4)
	}

	// The processor count is read when the plan is built, not per pass.
	setHostProcs(t, 8)
	p := inlinePlan(t)
	setHostProcs(t, 1)
	m, err := p.execute(context.Background(), func(int32) {})
	checkPass(t, "pass after the host shrank", m, err, false, 4)

	// Three concurrent passes at P=4 on 8 processors: nothing admits or
	// refuses them, every one runs on its pool.
	setHostProcs(t, 8)
	plans := []*Plan{inlinePlan(t), inlinePlan(t), inlinePlan(t)}
	var wg sync.WaitGroup
	results := make([]executor.Metrics, len(plans))
	errs := make([]error, len(plans))
	for i, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = p.execute(context.Background(), func(int32) {})
		}()
	}
	wg.Wait()
	for i := range results {
		checkPass(t, "concurrent pass", results[i], errs[i], false, 4)
	}
}

// TestInlineErrors checks that an inline pass reports cancellation and
// a body panic as its parallel strategy does.
func TestInlineErrors(t *testing.T) {
	setHostProcs(t, 1)
	p := inlinePlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := p.execute(ctx, func(i int32) {
		if i == 0 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled inline pass: err = %v, want context.Canceled", err)
	}
	_, err = p.execute(context.Background(), func(i int32) {
		if i == 3 {
			panic("boom")
		}
	})
	var pe *executor.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking inline pass: err = %v, want *PanicError", err)
	}
	m, err := p.execute(context.Background(), func(int32) {})
	checkPass(t, "pass after a panic", m, err, true, 4)
}

// TestInlinePlanCache checks that leased plans follow the rule too,
// including a skeleton served by delta repair.
func TestInlinePlanCache(t *testing.T) {
	skipIfStrategyPinned(t)
	base := meshFactor()
	opts := []Option{WithProcs(4), WithModel(planner.Default()), WithFusion(FuseOff)}
	for _, tc := range []struct {
		host   int
		inline bool
	}{{1, true}, {manyProcs, false}} {
		setHostProcs(t, tc.host)
		pc := NewPlanCache(8)
		p, err := pc.Get(base, true, opts...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.execute(context.Background(), func(int32) {})
		checkPass(t, fmt.Sprintf("leased plan on %d processors", tc.host), m, err, tc.inline, 4)

		edits := synthetic.DriftLower(rand.New(rand.NewSource(5)), base, nil, 4, 0.3)
		edited, err := base.ApplyRowEdits(edits)
		if err != nil {
			t.Fatal(err)
		}
		q, err := pc.Get(edited, true, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if st := pc.DeltaStats(); st.Repairs != 1 {
			t.Fatalf("drifted lookup was not repaired: %+v", st)
		}
		m, err = q.execute(context.Background(), func(int32) {})
		checkPass(t, fmt.Sprintf("repaired plan on %d processors", tc.host), m, err, tc.inline, 4)
		p.Close()
		q.Close()
		pc.Close()
	}
}

// TestInlineSkipsPinnedPlans checks that a pinned kind runs exactly the
// strategy it names on any host: WithKind, and a planner decision
// pinned by DOCONSIDER_STRATEGY.
func TestInlineSkipsPinnedPlans(t *testing.T) {
	setHostProcs(t, 1)
	q := inlinePlan(t)
	p, err := NewPlan(q.L, true, WithProcs(4), WithKind(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := p.execute(context.Background(), func(int32) {})
	checkPass(t, "WithKind(Pooled)", m, err, false, 4)

	pinned := *q.Decision
	pinned.Pinned = true
	if runsInline(q.Kind, &pinned, q.Sched) {
		t.Fatal("a decision pinned by DOCONSIDER_STRATEGY runs inline")
	}
}
