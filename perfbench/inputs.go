package main

import (
	"fmt"
	"math/rand"
	"sync"

	"doconsider/internal/problems"
	"doconsider/internal/sparse"
	"doconsider/internal/synthetic"
)

// problem is one suite factor with its seeded right-hand-side pool and
// the reference solutions of that pool on the undrifted factor.
type problem struct {
	name string
	l    *sparse.CSR
	wf   []int32
	b    [][]float64 // right-hand-side pool
	x    [][]float64 // forwardRef(l, b[v]) for every pool vector
}

// op is one request of a client's stream: the RHS vectors
// vec..vec+width-1 (mod the pool size) of problem prob, and for a drift
// request the row edits that move the factor one step along its chain.
type op struct {
	prob  int
	vec   int
	width int
	edits []sparse.RowEdit
}

// loadSuite builds the trisolve suite and its RHS pools from seed. The
// factors themselves are fixed by the suite; only the right-hand sides
// depend on the seed.
func loadSuite(seed int64, vectors int) ([]*problem, error) {
	names := problems.TriSolveNames()
	suite := make([]*problem, len(names))
	rng := rand.New(rand.NewSource(seed))
	for i, name := range names {
		p, err := problems.Get(name)
		if err != nil {
			return nil, err
		}
		pr := &problem{name: name, l: p.L, wf: p.Wf,
			b: make([][]float64, vectors), x: make([][]float64, vectors)}
		for v := range pr.b {
			pr.b[v] = make([]float64, p.L.N)
			for j := range pr.b[v] {
				pr.b[v][j] = rng.Float64()
			}
			pr.x[v] = make([]float64, p.L.N)
			if err := forwardRef(p.L, pr.x[v], pr.b[v]); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		suite[i] = pr
	}
	return suite, nil
}

// rhs returns the right-hand sides of o, referencing the pool.
func (p *problem) rhs(o *op) [][]float64 {
	bs := make([][]float64, o.width)
	for j := range bs {
		bs[j] = p.b[(o.vec+j)%len(p.b)]
	}
	return bs
}

// streamSpec shapes one client's seeded request stream.
type streamSpec struct {
	n          int     // requests after the registration prefix
	width      int     // RHS per request
	driftRate  float64 // share of requests that drift their factor
	driftEdits int
}

// genStream generates a client's whole request stream before timing.
// It opens with one full-ship registration per suite problem; after
// that each request picks a problem and a pool window uniformly. Drift
// requests walk a per-problem chain: each step's edits are generated
// against the matrix the previous step produced, so the stream is a
// pure function of the seed.
func genStream(rng *rand.Rand, suite []*problem, spec streamSpec) ([]op, error) {
	ops := make([]op, 0, len(suite)+spec.n)
	for p := range suite {
		ops = append(ops, op{prob: p, width: spec.width})
	}
	cur := make([]*sparse.CSR, len(suite))
	for p, pr := range suite {
		cur[p] = pr.l
	}
	for i := 0; i < spec.n; i++ {
		o := op{prob: rng.Intn(len(suite)), width: spec.width}
		o.vec = rng.Intn(len(suite[o.prob].b))
		if spec.driftRate > 0 && rng.Float64() < spec.driftRate {
			edits := synthetic.DriftLower(rng, cur[o.prob], suite[o.prob].wf, spec.driftEdits, 0.3)
			if len(edits) > 0 {
				next, err := cur[o.prob].ApplyRowEdits(edits)
				if err != nil {
					return nil, fmt.Errorf("generating drift for %s: %w", suite[o.prob].name, err)
				}
				cur[o.prob], o.edits = next, edits
			}
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// genStreams generates the streams of all clients in parallel, one
// goroutine per client, each from its own seed derived from seed.
func genStreams(seed int64, suite []*problem, specs []streamSpec) ([][]op, error) {
	out := make([][]op, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
			out[i], errs[i] = genStream(rng, suite, spec)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
