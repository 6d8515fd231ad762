// Package trisolve implements sparse triangular solves — the paper's
// central workload (Figure 8). The outer loop of row substitutions is the
// loop being run-time parallelized; the package provides the sequential
// reference and loop bodies for each executor.
package trisolve

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"

	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/reorder"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/supernode"
	"doconsider/internal/wavefront"
)

// ForwardSeq solves L*x = b sequentially where L is lower triangular with
// nonzero diagonal entries stored in the matrix. x and b may alias.
func ForwardSeq(l *sparse.CSR, x, b []float64) error {
	if l.N != l.M || len(x) != l.N || len(b) != l.N {
		return sparse.ErrShape
	}
	for i := 0; i < l.N; i++ {
		cols, vals := l.Row(i)
		s := b[i]
		diag := 0.0
		for k, c := range cols {
			switch {
			case int(c) < i:
				s -= vals[k] * x[c]
			case int(c) == i:
				diag = vals[k]
			default:
				return fmt.Errorf("trisolve: row %d has upper entry %d in forward solve", i, c)
			}
		}
		if diag == 0 {
			return fmt.Errorf("trisolve: zero diagonal at row %d", i)
		}
		x[i] = s / diag
	}
	return nil
}

// BackwardSeq solves U*x = b sequentially where U is upper triangular with
// nonzero diagonal entries. x and b may alias.
func BackwardSeq(u *sparse.CSR, x, b []float64) error {
	if u.N != u.M || len(x) != u.N || len(b) != u.N {
		return sparse.ErrShape
	}
	for i := u.N - 1; i >= 0; i-- {
		cols, vals := u.Row(i)
		s := b[i]
		diag := 0.0
		for k, c := range cols {
			switch {
			case int(c) > i:
				s -= vals[k] * x[c]
			case int(c) == i:
				diag = vals[k]
			default:
				return fmt.Errorf("trisolve: row %d has lower entry %d in backward solve", i, c)
			}
		}
		if diag == 0 {
			return fmt.Errorf("trisolve: zero diagonal at row %d", i)
		}
		x[i] = s / diag
	}
	return nil
}

// ForwardBody returns the executor loop body for a forward solve of
// L*x = b: body(i) performs row substitution i. The body is safe for
// concurrent execution of independent rows because row i writes only x[i].
// Diagonal entries are pre-reciprocated for speed.
func ForwardBody(l *sparse.CSR, x, b []float64) executor.Body {
	invDiag := invDiagonal(l)
	return func(i int32) {
		cols, vals := l.Row(int(i))
		vals = vals[:len(cols)] // hoist the bounds check out of the loop
		s := b[i]
		for k, c := range cols {
			if c != i {
				s -= vals[k] * x[c]
			}
		}
		x[i] = s * invDiag[i]
	}
}

// BackwardBody returns the executor loop body for a backward solve of
// U*x = b using the reflected iteration numbering of wavefront.FromUpper:
// iteration k performs row substitution n-1-k.
func BackwardBody(u *sparse.CSR, x, b []float64) executor.Body {
	invDiag := invDiagonal(u)
	n := u.N
	return func(k int32) {
		i := n - 1 - int(k)
		cols, vals := u.Row(i)
		vals = vals[:len(cols)] // hoist the bounds check out of the loop
		s := b[i]
		for q, c := range cols {
			if int(c) != i {
				s -= vals[q] * x[c]
			}
		}
		x[i] = s * invDiag[i]
	}
}

func invDiagonal(a *sparse.CSR) []float64 {
	inv := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		d := a.At(i, i)
		if d != 0 {
			inv[i] = 1 / d
		}
	}
	return inv
}

// Plan bundles everything needed to repeatedly solve with one triangular
// factor: the dependence structure, wavefront numbers, a schedule and the
// execution strategy instance. Building a Plan is the inspector step;
// Solve is the executor step. With the Pooled kind the strategy keeps a
// persistent worker pool across Solve calls; call Close when done with
// such a plan to release the workers.
//
// For a supernodal plan (Fusion non-nil) Deps and Sched describe the
// compressed unit-level structure the executor actually runs — each
// scheduled index is a supernode covering one or more rows — while Wf
// keeps the row-level wavefront numbers the inspector computed.
type Plan struct {
	L     *sparse.CSR
	Lower bool // forward (true) or backward (false) solve
	Deps  *wavefront.Deps
	Wf    []int32
	Sched *schedule.Schedule
	Kind  executor.Kind
	// Decision records the planner's analysis when the kind was chosen
	// adaptively (no WithKind); nil for pinned plans.
	Decision *planner.Decision
	strat    executor.Strategy
	fused    *fusedExec
	// inline runs every pass on the caller's goroutine in index order
	// (see runsInline).
	inline bool
	// leased marks plans obtained from a PlanCache: the schedule and
	// strategy are shared, so Close releases the lease (once) instead of
	// closing the strategy.
	leased  bool
	release func() error
}

// Fusion returns the supernode statistics of a fused plan, or nil for a
// row-wise plan.
func (p *Plan) Fusion() *supernode.Stats {
	if p.fused == nil {
		return nil
	}
	st := p.fused.stats
	return &st
}

// Option configures plan construction.
type Option func(*planConfig)

type planConfig struct {
	nproc     int
	kind      executor.Kind
	kindSet   bool // WithKind pins the kind; otherwise the planner chooses
	model     *planner.CostModel
	scheduler SchedulerKind
	part      schedule.Partition
	fuse      FuseMode
	// Drift hint (PlanCache only): the structure is hintRows-many edited
	// rows away from the resident plan fingerprinted hintFp. Advisory —
	// it never enters the cache key — but it lets a near-miss lookup skip
	// the ancestor diff scan.
	hintFp   uint64
	hintRows []int32
	// buildStats, when non-nil, receives the cost breakdown of the plan
	// build this lookup triggered (PlanCache only; advisory, never part
	// of the cache key).
	buildStats *BuildStats
}

// adaptive reports whether the planner should choose the executor.
func (c *planConfig) adaptive() bool { return !c.kindSet }

// fuseMode resolves the effective fusion mode: the DOCONSIDER_FUSE
// environment override trumps the WithFusion option, mirroring how
// DOCONSIDER_STRATEGY trumps adaptive selection.
func (c *planConfig) fuseMode() FuseMode {
	if m, ok := envFuseMode(); ok {
		return m
	}
	return c.fuse
}

// FuseMode controls supernodal row fusion (internal/supernode).
type FuseMode int

const (
	// FuseAuto (the default) detects supernodes on adaptively planned
	// global-schedule plans and lets the planner's cost model decide
	// whether the fused executor wins.
	FuseAuto FuseMode = iota
	// FuseOff disables detection entirely: plans are always row-wise.
	FuseOff
	// FuseForce executes fused whenever the partition is well-formed,
	// bypassing the cost model — for benchmarks and differential tests.
	FuseForce
)

var (
	fuseEnvOnce sync.Once
	fuseEnv     FuseMode
	fuseEnvSet  bool
)

// envFuseMode resolves the DOCONSIDER_FUSE override once per process.
// Unknown values are ignored rather than failing every plan.
func envFuseMode() (FuseMode, bool) {
	fuseEnvOnce.Do(func() {
		switch os.Getenv("DOCONSIDER_FUSE") {
		case "off":
			fuseEnv, fuseEnvSet = FuseOff, true
		case "force":
			fuseEnv, fuseEnvSet = FuseForce, true
		}
	})
	return fuseEnv, fuseEnvSet
}

// SchedulerKind selects global or local index-set scheduling.
type SchedulerKind int

const (
	// GlobalSched sorts the whole index set by wavefront and deals wrapped.
	GlobalSched SchedulerKind = iota
	// LocalSched keeps the initial partition and sorts locally.
	LocalSched
	// NaturalSched keeps the original order (doacross baseline).
	NaturalSched
)

// WithProcs sets the processor count (default 1).
func WithProcs(p int) Option { return func(c *planConfig) { c.nproc = p } }

// WithKind pins the executor kind, bypassing adaptive selection.
func WithKind(k executor.Kind) Option {
	return func(c *planConfig) { c.kind = k; c.kindSet = true }
}

// WithModel supplies the cost model adaptive selection consults; nil
// (the default) uses the once-per-machine calibrated host model. Pass
// planner.Default() for machine-independent, reproducible decisions.
func WithModel(m *planner.CostModel) Option { return func(c *planConfig) { c.model = m } }

// WithScheduler sets the scheduling method (default GlobalSched).
func WithScheduler(s SchedulerKind) Option { return func(c *planConfig) { c.scheduler = s } }

// WithPartition sets the local-scheduling partition (default Striped).
func WithPartition(p schedule.Partition) Option { return func(c *planConfig) { c.part = p } }

// WithFusion sets the supernodal fusion mode (default FuseAuto). The
// DOCONSIDER_FUSE environment variable ("off" or "force") overrides it
// process-wide.
func WithFusion(m FuseMode) Option { return func(c *planConfig) { c.fuse = m } }

// WithDriftHint tells a PlanCache lookup that the factor was produced by
// editing the nonzero pattern of exactly the given rows of the resident
// structure fingerprinted baseFp (sparse.CSR.StructureFingerprint). The
// hint is advisory and trusted: rows must cover every row whose pattern
// differs from the base — the server's base_fp+edits request form
// guarantees that by construction, having built the factor from those
// very edits. Plain NewPlan ignores the hint.
func WithDriftHint(baseFp uint64, rows []int32) Option {
	return func(c *planConfig) { c.hintFp, c.hintRows = baseFp, rows }
}

// BuildStats breaks down where a PlanCache lookup's build time went,
// for request-scoped latency attribution in the serving tier. A cache
// hit leaves it zero; a miss fills RepairNs with the delta-repair
// attempt's cost (successful or fallen back) and InspectNs with the
// full inspector run when one happened.
type BuildStats struct {
	RepairNs  int64 // time inside the near-miss repair attempt
	InspectNs int64 // time inside full inspection (0 when repaired)
	Repaired  bool  // the skeleton was obtained by delta repair
}

// WithBuildStats directs a PlanCache lookup to record its build-cost
// breakdown into bs. Advisory: it never enters the cache key, and only
// the caller whose lookup actually runs the singleflight build sees
// nonzero numbers (peers coalesced onto that build spend their time
// waiting, which their own request clocks capture). Plain NewPlan
// ignores it.
func WithBuildStats(bs *BuildStats) Option {
	return func(c *planConfig) { c.buildStats = bs }
}

// buildPlanConfig resolves options against the defaults shared by NewPlan
// and the plan cache's key computation.
func buildPlanConfig(opts []Option) planConfig {
	cfg := planConfig{nproc: 1, kind: executor.SelfExecuting, scheduler: GlobalSched, part: schedule.Striped}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.nproc < 1 {
		cfg.nproc = 1
	}
	return cfg
}

// inspection is the inspector's output: the row-level dependence
// structure and wavefronts, the schedule the executor will actually run
// (unit-level when fused), the chosen kind and decision, and the fused
// executor state for supernodal plans (nil for row-wise plans).
type inspection struct {
	deps  *wavefront.Deps
	wf    []int32
	sched *schedule.Schedule
	kind  executor.Kind
	dec   *planner.Decision
	fused *fusedExec
}

// inspect runs the inspector half of plan construction: dependence
// extraction, wavefront computation, supernode detection, adaptive
// planning (when no kind is pinned) and schedule construction. The
// output depends only on the sparsity structure of t, never on its
// values — which is what lets a PlanCache share it across matrices. The
// returned kind is cfg.kind for pinned plans and the planner's choice
// otherwise.
func inspect(t *sparse.CSR, lower bool, cfg planConfig) (*inspection, error) {
	var deps *wavefront.Deps
	if lower {
		deps = wavefront.FromLower(t)
	} else {
		deps = wavefront.FromUpper(t)
	}
	wf, err := wavefront.Compute(deps)
	if err != nil {
		return nil, err
	}

	// Supernode detection. Only global-schedule plans can run the
	// compressed unit schedule, and under FuseAuto only adaptive plans
	// detect (the cost model arbitrates; a pinned kind asked for exactly
	// the row-wise executor it named). A partition with nothing fused is
	// discarded — unless fusion is forced, where even an all-singleton
	// partition exercises the fused kernels.
	mode := cfg.fuseMode()
	var part *supernode.Partition
	var unitDeps *wavefront.Deps
	var unitWf []int32
	if cfg.scheduler == GlobalSched && (mode == FuseForce || (mode == FuseAuto && cfg.adaptive())) {
		p := supernode.Detect(deps, supernode.Config{})
		if st := p.Stats(); st.FusedRows > 0 || mode == FuseForce {
			unitDeps = p.Compress(deps)
			if unitWf, err = wavefront.Compute(unitDeps); err != nil {
				return nil, err
			}
			part = p
		}
	}

	kind := cfg.kind
	useFused := mode == FuseForce && part != nil
	var dec *planner.Decision
	var rank []int32
	if cfg.adaptive() {
		f := planner.Analyze(deps, wf, cfg.nproc)
		if part != nil {
			f.Fusion = fusionFeatures(part, unitDeps, unitWf, cfg.nproc)
		}
		d := planner.Select(f, cfg.model)
		if useFused && !d.Fused {
			// Forced fusion overrides the cost model's verdict but keeps
			// its executor kind; fused plans schedule units, so the
			// within-level row reordering has nothing to rank.
			d.Fused, d.Reorder = true, planner.ReorderNone
		}
		dec = &d
		kind = d.Strategy
		useFused = d.Fused
		// Realize an RCM reorder decision as a within-wavefront rank for
		// the global schedule; the wavefronts themselves are untouched
		// (DAG depth is relabeling-invariant) so results stay
		// bit-identical. Other schedulers fix the order themselves.
		if !useFused && d.Reorder == planner.ReorderRCM && cfg.scheduler == GlobalSched {
			if p, rerr := reorder.RCM(t); rerr == nil {
				rank = p.Inv
				if !lower {
					// FromUpper reflects indices (iteration k stands for
					// row n-1-k); reflect the rank to match.
					n := t.N
					rank = make([]int32, n)
					for k := 0; k < n; k++ {
						rank[k] = p.Inv[n-1-k]
					}
				}
			} else {
				d.Reorder = planner.ReorderNone
			}
		} else if d.Reorder != planner.ReorderNone {
			d.Reorder = planner.ReorderNone
		}
	}
	ins := &inspection{deps: deps, wf: wf, kind: kind, dec: dec}
	if useFused {
		fx, ferr := newFusedExec(t, lower, part, deps, unitDeps, unitWf, cfg.nproc)
		if ferr != nil {
			return nil, ferr
		}
		ins.fused = fx
		ins.sched = fx.sched
		return ins, nil
	}
	switch cfg.scheduler {
	case GlobalSched:
		if rank != nil {
			ins.sched = schedule.GlobalRanked(wf, rank, cfg.nproc)
		} else {
			ins.sched = schedule.Global(wf, cfg.nproc)
		}
	case LocalSched:
		ins.sched = schedule.Local(wf, cfg.nproc, cfg.part)
	case NaturalSched:
		ins.sched = schedule.Natural(t.N, cfg.nproc, cfg.part)
	default:
		return nil, fmt.Errorf("trisolve: unknown scheduler %d", cfg.scheduler)
	}
	return ins, nil
}

// NewPlan runs the inspector for a triangular factor: it extracts the
// dependence sets, computes wavefronts, lets the planner pick the
// executor strategy (and a locality reordering or supernodal fusion)
// unless WithKind pinned one, and builds the schedule.
func NewPlan(t *sparse.CSR, lower bool, opts ...Option) (*Plan, error) {
	cfg := buildPlanConfig(opts)
	ins, err := inspect(t, lower, cfg)
	if err != nil {
		return nil, err
	}
	strat, err := ins.kind.NewStrategy()
	if err != nil {
		return nil, err
	}
	p := &Plan{L: t, Lower: lower, Wf: ins.wf, Sched: ins.sched, Kind: ins.kind, Decision: ins.dec, strat: strat, fused: ins.fused,
		inline: runsInline(ins.kind, ins.dec, ins.sched)}
	if ins.fused != nil {
		p.Deps = ins.fused.deps
	} else {
		p.Deps = ins.deps
	}
	return p, nil
}

// Solve executes the planned triangular solve, writing the solution to x.
// x and b must not alias (the parallel executors read b while writing x).
func (p *Plan) Solve(x, b []float64) executor.Metrics {
	m, err := p.SolveCtx(context.Background(), x, b)
	return executor.MustMetrics(m, err)
}

// SolveCtx is Solve with cancellation support: a cancelled context
// releases every worker and returns ctx.Err().
func (p *Plan) SolveCtx(ctx context.Context, x, b []float64) (executor.Metrics, error) {
	m, err := p.execute(ctx, p.body(x, b))
	return p.rowMetrics(m, err), err
}

// rowMetrics keeps the Executed counter in row substitutions for fused
// plans: the executor counts scheduled indices, which for a supernodal
// schedule are multi-row units. A complete pass (possibly replicated
// P-fold by rotating-style strategies) translates exactly; an aborted
// pass keeps the raw unit count.
func (p *Plan) rowMetrics(m executor.Metrics, err error) executor.Metrics {
	if p.fused == nil || err != nil {
		return m
	}
	nodes := int64(p.fused.part.NumNodes())
	if nodes > 0 && m.Executed%nodes == 0 {
		m.Executed = m.Executed / nodes * int64(p.L.N)
	}
	return m
}

func (p *Plan) body(x, b []float64) executor.Body {
	if p.fused != nil {
		if p.Lower {
			return p.fused.forwardBody(p.L, x, b)
		}
		return p.fused.backwardBody(p.L, x, b)
	}
	if p.Lower {
		return ForwardBody(p.L, x, b)
	}
	return BackwardBody(p.L, x, b)
}

// Close releases the plan's resources. For a plan leased from a PlanCache
// it releases the lease (the shared schedule and strategy stay available
// to other lease holders); otherwise it closes stateful strategies (the
// pooled executor's workers) and is a no-op for stateless ones. Close is
// idempotent either way — a second Close on a leased plan must never
// fall through to the shared strategy.
func (p *Plan) Close() error {
	if p.leased {
		rel := p.release
		p.release = nil
		if rel == nil {
			return nil
		}
		return rel()
	}
	if c, ok := p.strat.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Phases returns the number of wavefronts of the factor — the paper's
// "Phases" column in Tables 2 and 3. A fused plan's schedule runs fewer
// phases (the compressed unit levels); this reports the factor's own
// level count either way.
func (p *Plan) Phases() int {
	if p.fused == nil {
		return p.Sched.NumPhases
	}
	n := 0
	for _, w := range p.Wf {
		if int(w)+1 > n {
			n = int(w) + 1
		}
	}
	return n
}
