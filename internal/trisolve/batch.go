package trisolve

import (
	"context"
	"fmt"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
)

// ForwardBatchBody returns the executor loop body for a batched forward
// solve of L*xs[j] = bs[j] for every j: body(i) performs row substitution
// i for all right-hand sides, reading the row's nonzeros once. Batching k
// solves into one scheduled pass pays the dependence busy-waits and the
// executor dispatch once instead of k times, and raises the arithmetic
// per synchronization by a factor of k.
func ForwardBatchBody(l *sparse.CSR, xs, bs [][]float64) executor.Body {
	invDiag := invDiagonal(l)
	return func(i int32) {
		cols, vals := l.Row(int(i))
		vals = vals[:len(cols)] // hoist the bounds check out of the loops
		for j := range xs {
			x, b := xs[j], bs[j]
			s := b[i]
			for k, c := range cols {
				if c != i {
					s -= vals[k] * x[c]
				}
			}
			x[i] = s * invDiag[i]
		}
	}
}

// BackwardBatchBody is the batched counterpart of BackwardBody: iteration
// k performs row substitution n-1-k for every right-hand side.
func BackwardBatchBody(u *sparse.CSR, xs, bs [][]float64) executor.Body {
	invDiag := invDiagonal(u)
	n := u.N
	return func(k int32) {
		i := n - 1 - int(k)
		cols, vals := u.Row(i)
		vals = vals[:len(cols)] // hoist the bounds check out of the loops
		for j := range xs {
			x, b := xs[j], bs[j]
			s := b[i]
			for q, c := range cols {
				if int(c) != i {
					s -= vals[q] * x[c]
				}
			}
			x[i] = s * invDiag[i]
		}
	}
}

// BatchProblem couples one triangular factor with the right-hand sides to
// solve against it and the vectors receiving the solutions. It is the unit
// of cross-request fusion: members of one group share the plan's sparsity
// structure (and therefore its wavefronts and schedule) while carrying
// their own numeric values.
type BatchProblem struct {
	L      *sparse.CSR // same sparsity pattern as the plan's factor
	Xs, Bs [][]float64 // len(Xs) == len(Bs); one solution per RHS
}

// ForwardGroupBody returns the executor loop body for a fused forward
// solve over a group of structurally identical factors: body(i) performs
// row substitution i for every right-hand side of every member, reading
// each member's row once. This is the cross-request analogue of
// ForwardBatchBody — the dependence busy-waits and the executor dispatch
// are paid once for the whole group.
func ForwardGroupBody(group []BatchProblem) executor.Body {
	inv := make([][]float64, len(group))
	for g := range group {
		inv[g] = invDiagonal(group[g].L)
	}
	return func(i int32) {
		for g := range group {
			m := &group[g]
			cols, vals := m.L.Row(int(i))
			vals = vals[:len(cols)] // hoist the bounds check out of the loops
			d := inv[g][i]
			for j := range m.Xs {
				x, b := m.Xs[j], m.Bs[j]
				s := b[i]
				for k, c := range cols {
					if c != i {
						s -= vals[k] * x[c]
					}
				}
				x[i] = s * d
			}
		}
	}
}

// BackwardGroupBody is the fused counterpart of BackwardBatchBody:
// iteration k performs row substitution n-1-k for every member.
func BackwardGroupBody(group []BatchProblem) executor.Body {
	inv := make([][]float64, len(group))
	for g := range group {
		inv[g] = invDiagonal(group[g].L)
	}
	n := 0
	if len(group) > 0 {
		n = group[0].L.N
	}
	return func(k int32) {
		i := n - 1 - int(k)
		for g := range group {
			m := &group[g]
			cols, vals := m.L.Row(i)
			vals = vals[:len(cols)] // hoist the bounds check out of the loops
			d := inv[g][i]
			for j := range m.Xs {
				x, b := m.Xs[j], m.Bs[j]
				s := b[i]
				for q, c := range cols {
					if int(c) != i {
						s -= vals[q] * x[c]
					}
				}
				x[i] = s * d
			}
		}
	}
}

// SolveGroup solves every member's systems in one scheduled pass. Each
// member's factor must have exactly the sparsity pattern of the plan's
// factor (checked via StructureFingerprint) but may carry different
// values: the group shares the inspector output and the executor pass
// while each member solves with its own numbers. Per member the
// arithmetic matches SolveBatch on that member alone (same operations in
// the same order), so results are bit-identical to unfused solves.
func (p *Plan) SolveGroup(group []BatchProblem) (executor.Metrics, error) {
	return p.SolveGroupCtx(context.Background(), group)
}

// SolveGroupCtx is SolveGroup with cancellation support: a cancelled
// context releases every worker and returns ctx.Err().
func (p *Plan) SolveGroupCtx(ctx context.Context, group []BatchProblem) (executor.Metrics, error) {
	if len(group) == 0 {
		return executor.Metrics{}, nil
	}
	n := p.L.N
	fp := p.L.StructureFingerprint()
	for g := range group {
		m := &group[g]
		if m.L.N != n || m.L.StructureFingerprint() != fp {
			return executor.Metrics{}, fmt.Errorf("trisolve: group member %d does not share the plan's sparsity structure", g)
		}
		if len(m.Xs) != len(m.Bs) {
			return executor.Metrics{}, fmt.Errorf("trisolve: group member %d has %d solutions but %d right-hand sides", g, len(m.Xs), len(m.Bs))
		}
		for j := range m.Xs {
			if len(m.Xs[j]) != n || len(m.Bs[j]) != n {
				return executor.Metrics{}, fmt.Errorf("trisolve: group member %d vector %d has length %d/%d, want %d", g, j, len(m.Xs[j]), len(m.Bs[j]), n)
			}
		}
	}
	var body executor.Body
	switch {
	case p.fused != nil && p.Lower:
		body = p.fused.forwardGroupBody(p.L, group)
	case p.fused != nil:
		body = p.fused.backwardGroupBody(p.L, group)
	case p.Lower:
		body = ForwardGroupBody(group)
	default:
		body = BackwardGroupBody(group)
	}
	m, err := p.execute(ctx, body)
	return p.rowMetrics(m, err), err
}

// SolveBatch solves the planned triangular system for len(xs) right-hand
// sides in one scheduled pass, writing solution j to xs[j]. Each xs[j]
// must not alias its bs[j] or any other vector in the batch. With k = 1
// the arithmetic matches Solve exactly (same operations in the same
// order), so the results are bit-identical.
func (p *Plan) SolveBatch(xs, bs [][]float64) (executor.Metrics, error) {
	return p.SolveBatchCtx(context.Background(), xs, bs)
}

// SolveBatchCtx is SolveBatch with cancellation support: a cancelled
// context releases every worker and returns ctx.Err().
func (p *Plan) SolveBatchCtx(ctx context.Context, xs, bs [][]float64) (executor.Metrics, error) {
	if len(xs) != len(bs) {
		return executor.Metrics{}, fmt.Errorf("trisolve: batch has %d solutions but %d right-hand sides", len(xs), len(bs))
	}
	if len(xs) == 0 {
		return executor.Metrics{}, nil
	}
	n := p.L.N
	for j := range xs {
		if len(xs[j]) != n || len(bs[j]) != n {
			return executor.Metrics{}, fmt.Errorf("trisolve: batch vector %d has length %d/%d, want %d", j, len(xs[j]), len(bs[j]), n)
		}
	}
	var body executor.Body
	switch {
	case p.fused != nil && p.Lower:
		body = p.fused.forwardBatchBody(p.L, xs, bs)
	case p.fused != nil:
		body = p.fused.backwardBatchBody(p.L, xs, bs)
	case p.Lower:
		body = ForwardBatchBody(p.L, xs, bs)
	default:
		body = BackwardBatchBody(p.L, xs, bs)
	}
	m, err := p.execute(ctx, body)
	return p.rowMetrics(m, err), err
}
