package trisolve

import (
	"context"
	"runtime"

	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/schedule"
)

// The paper's self-executing executor (Figure 4) busy-waits on the
// assumption that each of its P workers owns a processor. A serving
// process breaks that assumption: it plans every pass for a fixed P
// whatever the host has, and P spinning workers on fewer processors
// mostly wait for each other. A plan whose parallel strategy the
// planner chose for more processors than the process has therefore
// runs its passes inline — the same body, in index order, on the
// caller's goroutine. Index order is a topological order of every
// trisolve plan (dependences point to smaller indices, in row-wise and
// fused unit numbering and under the reflected backward numbering
// alike), and the per-row arithmetic is the body's own, so an inline
// pass is bit-identical to a parallel one.

// hostProcs reports the processors the process has. It is read once
// per plan build, not per pass: a GOMAXPROCS change applies to plans
// built after it. Tests replace it.
var hostProcs = func() int { return runtime.GOMAXPROCS(0) }

// inlineStrategy runs the passes of inline plans: the sequential
// executor, which visits the schedule's indices in index order. The
// lookup cannot fail: package executor registers its built-in kinds in
// init, which runs before this package's variables are set.
var inlineStrategy, _ = executor.Sequential.NewStrategy()

// runsInline reports whether a plan with this kind, planner decision
// and schedule runs its passes inline: the planner chose a parallel
// strategy for more processors than the process has. Pinned kinds
// (WithKind or DOCONSIDER_STRATEGY) always run the strategy they name.
func runsInline(kind executor.Kind, dec *planner.Decision, sched *schedule.Schedule) bool {
	return dec != nil && !dec.Pinned && kind != executor.Sequential && sched.P > hostProcs()
}

// execute runs one pass of body over the plan's schedule, on the plan's
// strategy or, for an inline plan, on the caller's goroutine.
func (p *Plan) execute(ctx context.Context, body executor.Body) (executor.Metrics, error) {
	if !p.inline {
		return p.strat.Execute(ctx, p.Sched, p.Deps, body)
	}
	m, err := inlineStrategy.Execute(ctx, p.Sched, p.Deps, body)
	m.Inline = true
	return m, err
}
