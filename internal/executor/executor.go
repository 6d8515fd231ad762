// Package executor implements the paper's transformed loop structures: the
// pre-scheduled executor, which separates consecutive wavefronts with
// global synchronizations (Figure 5), and the self-executing executor,
// which replaces barriers with busy waits on a shared ready array
// (Figure 4). A doacross baseline — the self-executing mechanism over the
// original, unsorted index order — a sequential reference, and a pooled
// executor that keeps a persistent set of workers across runs are also
// provided.
//
// An executor runs a user loop body once per loop index. The body receives
// the index to execute; any data (solution vectors, matrices, indirection
// arrays) is captured in the closure. Bodies for distinct indices in the
// same wavefront run concurrently, so they must only write state owned by
// their own index.
//
// Execution strategies are pluggable: each is a Strategy registered by
// name (see Register), and the Kind constants name the built-in ones. The
// context-aware entry points (RunCtx, Strategy.Execute) guarantee that a
// cancelled context or a panicking loop body releases every busy-waiting
// worker instead of deadlocking the run.
package executor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"doconsider/internal/barrier"
	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// Body is a loop body: it performs the work of loop index i.
type Body func(i int32)

// Kind names a built-in execution strategy.
type Kind int

const (
	// Sequential executes indices 0..n-1 in order on one processor.
	Sequential Kind = iota
	// PreScheduled executes wavefront phases separated by barriers.
	PreScheduled
	// SelfExecuting busy-waits on a shared ready array instead of barriers.
	SelfExecuting
	// DoAcross is SelfExecuting over the natural (unsorted) index order.
	DoAcross
	// Pooled is SelfExecuting on a persistent worker pool: goroutines are
	// spawned once and reused, so repeated runs of a prepared schedule pay
	// no spawn or allocation cost (the paper's amortization argument,
	// §5.1.1, applied to the runtime itself).
	Pooled
)

// String returns the executor name as used in the paper (and in the
// strategy registry).
func (k Kind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case PreScheduled:
		return "pre-scheduled"
	case SelfExecuting:
		return "self-executing"
	case DoAcross:
		return "doacross"
	case Pooled:
		return "pooled"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NewStrategy returns a fresh instance of the strategy this kind names.
func (k Kind) NewStrategy() (Strategy, error) { return NewStrategy(k.String()) }

// KindByName resolves a built-in kind from its registry name — the
// inverse of Kind.String for the five built-ins. (Strategies registered
// by callers have no Kind; instantiate those with NewStrategy.)
func KindByName(name string) (Kind, error) {
	for _, k := range []Kind{Sequential, PreScheduled, SelfExecuting, DoAcross, Pooled} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("executor: unknown kind %q", name)
}

// Metrics reports per-run execution accounting, the experimental raw
// material of §5.1.2 ("Where Does the Time Go").
type Metrics struct {
	P          int   // processors
	Phases     int   // barrier phases executed (pre-scheduled only)
	Executed   int64 // loop bodies run
	SpinChecks int64 // shared-array reads while busy-waiting (self-exec)
	SpinWaits  int64 // dependences that were not ready on first check
	// Inline marks a pass that ran on the caller's goroutine, in index
	// order, in place of its parallel strategy because the process has
	// fewer processors than the plan's P (see internal/trisolve); P is
	// then 1.
	Inline bool
}

// MustMetrics unwraps an Execute result for non-context entry points:
// with an uncancellable context the only possible error is a body panic,
// which is re-raised on the caller's goroutine; any other error (a
// cancelled context, a misconfigured pool) also panics.
func MustMetrics(m Metrics, err error) Metrics {
	if err == nil {
		return m
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
	panic(err)
}

// RunSequential executes body for i = 0..n-1 in order.
func RunSequential(n int, body Body) Metrics {
	for i := int32(0); int(i) < n; i++ {
		body(i)
	}
	return Metrics{P: 1, Executed: int64(n)}
}

// RunPreScheduled executes the schedule with one goroutine per processor
// and a global synchronization between consecutive phases (paper Figure 5:
// the NEWPHASE flag becomes a phase loop around a reusable barrier).
func RunPreScheduled(s *schedule.Schedule, body Body) Metrics {
	return MustMetrics(runPreScheduledCtx(context.Background(), s, body))
}

// runPreScheduledCtx is the context-aware pre-scheduled executor. Workers
// that observe an abort (body panic or cancellation) stop executing bodies
// but keep arriving at every remaining barrier, so the phase structure
// unwinds without deadlock.
func runPreScheduledCtx(ctx context.Context, s *schedule.Schedule, body Body) (Metrics, error) {
	if s.P == 1 {
		m, err := runSequentialOrder(ctx, s.Proc(0), body)
		m.Phases = s.NumPhases
		return m, err
	}
	var rc runControl
	rc.reset(ctx)
	bar := barrier.NewSenseReversing(s.P)
	var executed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < s.P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			g := barrierGuard{rc: &rc, bar: bar, phases: s.NumPhases}
			defer g.check()
			var ran int64
			for k := 0; k < s.NumPhases; k++ {
				if !rc.isAborted() {
					ran += runPhase(&rc, s.Phase(p, k), body)
				}
				bar.Wait()
				g.attended++
			}
			executed.Add(ran)
			g.completed = true
		}(p)
	}
	wg.Wait()
	m := Metrics{P: s.P, Phases: s.NumPhases, Executed: executed.Load()}
	return m, rc.err(ctx)
}

// runPhase executes one processor's share of one phase, converting a body
// panic into a run abort. It returns the number of bodies executed.
func runPhase(rc *runControl, idxs []int32, body Body) (ran int64) {
	defer func() {
		if r := recover(); r != nil {
			rc.recordPanic(r)
		}
	}()
	for _, i := range idxs {
		if rc.stop() {
			return ran
		}
		body(i)
		ran++
	}
	return ran
}

// runSequentialOrder executes an explicit index order on one processor
// with cancellation checks and panic capture. The loop is written
// directly (not over an iter.Seq): a range-over-func loop body is a
// closure over the function's locals, which heap-allocates on every
// call — garbage the serving warm path is gated against.
func runSequentialOrder(ctx context.Context, order []int32, body Body) (m Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	done := ctx.Done()
	executed := int64(0)
	for _, i := range order {
		if done != nil {
			select {
			case <-done:
				return Metrics{P: 1, Executed: executed}, ctx.Err()
			default:
			}
		}
		body(i)
		executed++
	}
	return Metrics{P: 1, Executed: executed}, nil
}

// RunSelfExecuting executes the schedule with one goroutine per processor.
// A shared ready array indicates whether each index has been computed;
// before running index i the executor busy-waits until every dependence of
// i is marked complete (paper Figure 4, lines 3a-3c).
//
// The schedule may be any of global, local or natural order; deps must be
// acyclic (for backward-only dependences this is automatic). Progress is
// guaranteed for any schedule in which each processor's list is ordered
// consistently with some topological order of deps restricted to that
// processor — wavefront-sorted and natural orders both qualify.
func RunSelfExecuting(s *schedule.Schedule, deps *wavefront.Deps, body Body) Metrics {
	return MustMetrics(runSelfExecutingCtx(context.Background(), s, deps, body))
}

// runSelfExecutingCtx is the context-aware self-executing executor. The
// shared abort flag is checked in every busy-wait spin, so a panicking or
// cancelled run releases all spinning peers.
func runSelfExecutingCtx(ctx context.Context, s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, error) {
	if s.P == 1 {
		// Degenerate case: the local order itself must be executable.
		return runSequentialOrder(ctx, s.Proc(0), body)
	}
	var rc runControl
	rc.reset(ctx)
	ready := make([]int32, s.N)
	var executed, spinChecks, spinWaits atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < s.P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			check, disarm := exitGuard(&rc)
			defer check()
			ran, checks, waits := runSelfProc(&rc, s.Proc(p), deps, ready, body)
			executed.Add(ran)
			spinChecks.Add(checks)
			spinWaits.Add(waits)
			disarm()
		}(p)
	}
	wg.Wait()
	m := Metrics{
		P:          s.P,
		Executed:   executed.Load(),
		SpinChecks: spinChecks.Load(),
		SpinWaits:  spinWaits.Load(),
	}
	return m, rc.err(ctx)
}

// runSelfProc executes one processor's list under busy-wait dependence
// synchronization, publishing completions in ready (1 = done).
func runSelfProc(rc *runControl, idxs []int32, deps *wavefront.Deps, ready []int32, body Body) (ran, checks, waits int64) {
	defer func() {
		if r := recover(); r != nil {
			rc.recordPanic(r)
		}
	}()
	for _, i := range idxs {
		if rc.stop() {
			return
		}
		for _, t := range deps.On(int(i)) {
			checks++
			if atomic.LoadInt32(&ready[t]) == 1 {
				continue
			}
			waits++
			if !spinUntilReady(rc, &ready[t]) {
				return
			}
		}
		body(i)
		ran++
		atomic.StoreInt32(&ready[i], 1)
	}
	return
}

// spinUntilReady busy-waits for a ready flag, yielding between checks; it
// returns false if the run aborted while waiting.
func spinUntilReady(rc *runControl, flag *int32) bool {
	for atomic.LoadInt32(flag) != 1 {
		if rc.stop() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// RunDoAcross executes indices in their original order striped across
// nproc processors with busy-wait synchronization — the paper's doacross
// comparison loop (§5.1.2): "the self-executing loop is a doacross loop
// with a reordered index set".
func RunDoAcross(n, nproc int, deps *wavefront.Deps, body Body) Metrics {
	s := schedule.Natural(n, nproc, schedule.Striped)
	return RunSelfExecuting(s, deps, body)
}

// Run dispatches on kind. For Sequential and DoAcross the schedule supplies
// only N and P. A body panic propagates to the caller.
func Run(kind Kind, s *schedule.Schedule, deps *wavefront.Deps, body Body) Metrics {
	return MustMetrics(RunCtx(context.Background(), kind, s, deps, body))
}

// RunCtx dispatches on kind through the strategy registry, with
// cancellation support: if ctx is cancelled mid-run, every worker
// (including busy-waiting ones) is released and ctx.Err() is returned; if
// the body panics, a *PanicError is returned.
//
// Stateful strategies (Pooled) are created and torn down around the call;
// to amortize the pool across runs, hold a PooledStrategy (or use
// core.Runtime with the Pooled kind).
func RunCtx(ctx context.Context, kind Kind, s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, error) {
	strat, err := kind.NewStrategy()
	if err != nil {
		return Metrics{}, err
	}
	if c, ok := strat.(io.Closer); ok {
		defer c.Close()
	}
	return strat.Execute(ctx, s, deps, body)
}
