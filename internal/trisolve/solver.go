package trisolve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/wavefront"
)

// BatchSolver binds a plan to pre-resolved solve state — the reciprocal
// diagonal and one executor body closure — so repeated batched solves
// allocate nothing. Plan.SolveBatchCtx builds the reciprocal diagonal
// and a fresh body closure on every call, which is fine per plan
// construction but is heap traffic on a serving warm path; a
// BatchSolver pays both once. This is safe because the factor values
// behind a plan are treated as immutable (the serving tier caches
// factors by content fingerprint), so the reciprocal diagonal cannot go
// stale.
//
// The per-call vectors are installed into solver fields read by the
// bound body under a mutex, which serializes Solve calls on one solver.
// The serving coalescer already executes at most one pass per factor at
// a time, so the serialization costs nothing there; independent callers
// wanting concurrent solves bind one solver each.
//
// Arithmetic is bit-identical to Plan.SolveBatchCtx: the bodies below
// mirror the batch bodies of batch.go and fused.go operation for
// operation, only reading xs/bs through the solver instead of a
// per-call closure.
type BatchSolver struct {
	p       *Plan
	invDiag []float64
	body    executor.Body

	// Timed execution state (SolveTimed): a prebuilt wrapper body that
	// charges each scheduled index's runtime to its wavefront level on
	// the installed clock. Built lazily on the first timed solve — the
	// level map and the wrapper closure are the only allocations, and
	// they happen once per solver — so sampled solves on a warm solver
	// stay allocation-free.
	timed   executor.Body
	levelOf []int32    // scheduled index -> wavefront level
	clock   LevelClock // per-call, installed under mu like xs/bs

	mu sync.Mutex
	xs [][]float64
	bs [][]float64
}

// LevelClock receives per-wavefront-level executor time from a timed
// solve. Implementations must be safe for concurrent Add calls — the
// executor invokes the timed body from its worker goroutines.
// internal/obs.LevelClock is the serving tier's implementation.
type LevelClock interface {
	Add(level int32, ns int64)
}

// Bind builds a BatchSolver over the plan. The solver borrows the plan:
// the caller must keep the plan open (not Close it) for as long as the
// solver is in use.
func (p *Plan) Bind() *BatchSolver {
	s := &BatchSolver{p: p, invDiag: invDiagonal(p.L)}
	switch {
	case p.fused != nil && p.Lower:
		s.body = s.fusedForwardBody()
	case p.fused != nil:
		s.body = s.fusedBackwardBody()
	case p.Lower:
		s.body = s.forwardBody()
	default:
		s.body = s.backwardBody()
	}
	return s
}

// checkBatch validates a batch's shape against the plan.
func (s *BatchSolver) checkBatch(xs, bs [][]float64) error {
	if len(xs) != len(bs) {
		return fmt.Errorf("trisolve: batch has %d solutions but %d right-hand sides", len(xs), len(bs))
	}
	n := s.p.L.N
	for j := range xs {
		if len(xs[j]) != n || len(bs[j]) != n {
			return fmt.Errorf("trisolve: batch vector %d has length %d/%d, want %d", j, len(xs[j]), len(bs[j]), n)
		}
	}
	return nil
}

// Solve runs one batched pass writing solution j to xs[j], exactly as
// Plan.SolveBatchCtx would, with zero allocations on the success path.
func (s *BatchSolver) Solve(ctx context.Context, xs, bs [][]float64) (executor.Metrics, error) {
	if err := s.checkBatch(xs, bs); err != nil {
		return executor.Metrics{}, err
	}
	if len(xs) == 0 {
		return executor.Metrics{}, nil
	}
	s.mu.Lock()
	s.xs, s.bs = xs, bs
	m, err := s.p.execute(ctx, s.body)
	s.xs, s.bs = nil, nil
	s.mu.Unlock()
	return s.p.rowMetrics(m, err), err
}

// SolveTimed is Solve with per-wavefront-level timing: each scheduled
// index's runtime (a row for row-wise plans, a fused supernode for
// supernodal ones) is charged to its level on clock. The arithmetic is
// byte-identical to Solve — the timed body wraps the same bound body.
// The first timed solve on a solver builds the level map and wrapper
// (two allocations, once); every later call allocates nothing, so
// level sampling at any rate keeps the serving warm path at 0
// allocs/op.
func (s *BatchSolver) SolveTimed(ctx context.Context, xs, bs [][]float64, clock LevelClock) (executor.Metrics, error) {
	if clock == nil {
		return s.Solve(ctx, xs, bs)
	}
	if err := s.checkBatch(xs, bs); err != nil {
		return executor.Metrics{}, err
	}
	if len(xs) == 0 {
		return executor.Metrics{}, nil
	}
	s.mu.Lock()
	if s.timed == nil {
		// p.Deps is in scheduled-index space for every plan shape (unit
		// deps when fused, iteration deps otherwise), so its wavefront
		// levels index exactly what the executor body receives.
		lv, err := wavefront.Compute(s.p.Deps)
		if err != nil {
			s.mu.Unlock()
			return executor.Metrics{}, err
		}
		s.levelOf = lv
		inner := s.body
		s.timed = func(i int32) {
			t0 := time.Now()
			inner(i)
			s.clock.Add(s.levelOf[i], time.Since(t0).Nanoseconds())
		}
	}
	s.clock = clock
	s.xs, s.bs = xs, bs
	m, err := s.p.execute(ctx, s.timed)
	s.xs, s.bs = nil, nil
	s.clock = nil
	s.mu.Unlock()
	return s.p.rowMetrics(m, err), err
}

// forwardBody mirrors ForwardBatchBody with the reciprocal diagonal
// precomputed and the vectors read from the solver.
func (s *BatchSolver) forwardBody() executor.Body {
	l := s.p.L
	inv := s.invDiag
	return func(i int32) {
		cols, vals := l.Row(int(i))
		vals = vals[:len(cols)] // hoist the bounds check out of the loops
		for j := range s.xs {
			x, b := s.xs[j], s.bs[j]
			acc := b[i]
			for k, c := range cols {
				if c != i {
					acc -= vals[k] * x[c]
				}
			}
			x[i] = acc * inv[i]
		}
	}
}

// backwardBody mirrors BackwardBatchBody.
func (s *BatchSolver) backwardBody() executor.Body {
	u := s.p.L
	inv := s.invDiag
	n := u.N
	return func(k int32) {
		i := n - 1 - int(k)
		cols, vals := u.Row(i)
		vals = vals[:len(cols)] // hoist the bounds check out of the loops
		for j := range s.xs {
			x, b := s.xs[j], s.bs[j]
			acc := b[i]
			for q, c := range cols {
				if int(c) != i {
					acc -= vals[q] * x[c]
				}
			}
			x[i] = acc * inv[i]
		}
	}
}

// fusedForwardBody mirrors fusedExec.forwardBatchBody.
func (s *BatchSolver) fusedForwardBody() executor.Body {
	l := s.p.L
	fx := s.p.fused
	inv := s.invDiag
	rp, ci, vals := l.RowPtr, l.ColIdx, l.Val
	np, dp := fx.part.RowPtr, fx.diagPos
	return func(u int32) {
		for r := np[u]; r < np[u+1]; r++ {
			d := dp[r]
			cols := ci[rp[r]:d]
			vs := vals[rp[r]:d]
			vs = vs[:len(cols)]
			var cols2 []int32
			var vs2 []float64
			if start := d + 1; start < rp[r+1] {
				cols2 = ci[start:rp[r+1]]
				vs2 = vals[start:rp[r+1]]
				vs2 = vs2[:len(cols2)]
			}
			for j := range s.xs {
				x, b := s.xs[j], s.bs[j]
				acc := b[r]
				for k, c := range cols {
					acc -= vs[k] * x[c]
				}
				for k, c := range cols2 {
					acc -= vs2[k] * x[c]
				}
				x[r] = acc * inv[r]
			}
		}
	}
}

// fusedBackwardBody mirrors fusedExec.backwardBatchBody.
func (s *BatchSolver) fusedBackwardBody() executor.Body {
	uM := s.p.L
	fx := s.p.fused
	inv := s.invDiag
	n := uM.N
	rp, ci, vals := uM.RowPtr, uM.ColIdx, uM.Val
	np, dp := fx.part.RowPtr, fx.diagPos
	return func(u int32) {
		for k := np[u]; k < np[u+1]; k++ {
			i := int32(n-1) - k
			d := dp[i]
			cols := ci[rp[i]:d]
			vs := vals[rp[i]:d]
			vs = vs[:len(cols)]
			var cols2 []int32
			var vs2 []float64
			if start := d + 1; start < rp[i+1] {
				cols2 = ci[start:rp[i+1]]
				vs2 = vals[start:rp[i+1]]
				vs2 = vs2[:len(cols2)]
			}
			for j := range s.xs {
				x, b := s.xs[j], s.bs[j]
				acc := b[i]
				for q, c := range cols {
					acc -= vs[q] * x[c]
				}
				for q, c := range cols2 {
					acc -= vs2[q] * x[c]
				}
				x[i] = acc * inv[i]
			}
		}
	}
}
