package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"doconsider/client"
	"doconsider/internal/sparse"
)

// forwardRef is the sequential reference the executors are pinned
// against: reciprocal diagonal and the same operation order as every
// strategy body, so a correct answer matches it bit for bit. It is the
// arithmetic of server.ForwardRef, which lives in that package's tests
// and so cannot be imported.
func forwardRef(l *sparse.CSR, x, b []float64) error {
	inv := make([]float64, l.N)
	for i := 0; i < l.N; i++ {
		d := l.At(i, i)
		if d == 0 {
			return fmt.Errorf("zero diagonal at %d", i)
		}
		inv[i] = 1 / d
	}
	for i := 0; i < l.N; i++ {
		cols, vals := l.Row(i)
		s := b[i]
		for q, c := range cols {
			if int(c) != i {
				s -= vals[q] * x[c]
			}
		}
		x[i] = s * inv[i]
	}
	return nil
}

// The answer digest is FNV-1a over the 64-bit words of the solutions in
// order. Each step is a bijection of the running hash, so any change to
// a single word, one flipped bit included, always changes the digest.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func digestFloats(xs [][]float64) uint64 {
	h := fnvOffset
	for _, x := range xs {
		for _, v := range x {
			h ^= math.Float64bits(v)
			h *= fnvPrime
		}
	}
	return h
}

// digestPacked digests little-endian packed float64 vectors (the JSON
// wire's x_b64); it equals digestFloats of the unpacked values.
func digestPacked(xs [][]byte) uint64 {
	h := fnvOffset
	for _, x := range xs {
		for i := 0; i+8 <= len(x); i += 8 {
			h ^= binary.LittleEndian.Uint64(x[i:])
			h *= fnvPrime
		}
	}
	return h
}

// checker replays one client's stream to find the factor each answer
// was solved on, and compares every answer's digest with the digest of
// forwardRef on that factor. It runs after the timed window.
type checker struct {
	suite []*problem
}

type checkResult struct {
	checked, wrong int
	firstWrong     string
}

// check verifies c's records in order and marks a wrong answer
// statusFailed, so the figures taken afterwards count it as failed.
// Drift requests advance the replayed factor exactly when
// client.Factor.Drift advances its own: on a 200 reply, right or wrong.
// The replayed factors must end equal to the client's Factor states,
// which ties the replay to the matrices the client actually shipped.
func (ck *checker) check(c *clientState) (checkResult, error) {
	var res checkResult
	cur := make([]*sparse.CSR, len(ck.suite))
	memo := make([]map[int][]float64, len(ck.suite)) // per-problem refs on a drifted factor
	for p, pr := range ck.suite {
		cur[p] = pr.l
	}
	for i := range c.recs {
		r := &c.recs[i]
		o := &c.ops[r.op]
		pr := ck.suite[o.prob]
		if o.edits != nil && r.status == statusOK {
			next, err := cur[o.prob].ApplyRowEdits(o.edits)
			if err != nil {
				return res, fmt.Errorf("%s: replaying drift of %s: %w", c.name, pr.name, err)
			}
			cur[o.prob], memo[o.prob] = next, make(map[int][]float64)
		}
		if r.status != statusOK {
			continue
		}
		refs := make([][]float64, o.width)
		for j := range refs {
			v := (o.vec + j) % len(pr.b)
			if cur[o.prob] == pr.l {
				refs[j] = pr.x[v]
				continue
			}
			x, ok := memo[o.prob][v]
			if !ok {
				x = make([]float64, pr.l.N)
				if err := forwardRef(cur[o.prob], x, pr.b[v]); err != nil {
					return res, err
				}
				memo[o.prob][v] = x
			}
			refs[j] = x
		}
		res.checked++
		if r.digest != digestFloats(refs) {
			res.wrong++
			r.status = statusFailed
			if res.firstWrong == "" {
				res.firstWrong = fmt.Sprintf("%s request %d (%s, trace %016x): solution differs from the sequential reference",
					c.name, r.op, pr.name, r.trace)
			}
		}
	}
	for p, f := range c.factors {
		if !sparse.Equal(f.State().Cur, cur[p]) {
			return res, fmt.Errorf("%s: replayed %s factor differs from the client's Factor state", c.name, ck.suite[p].name)
		}
	}
	return res, nil
}

// selfTestCheck proves the check can fail: it runs the checker over
// two answers to the same request, one the reference solution and one
// with a single bit of one solution flipped, and requires exactly the
// flipped one to be reported wrong and marked failed. It also pins the JSON wire's packed
// digest to the binary wire's.
func selfTestCheck(suite []*problem) error {
	pr := suite[0]
	o := op{prob: 0, vec: 1, width: 2}
	xs := make([][]float64, o.width)
	packed := make([][]byte, o.width)
	for j := range xs {
		xs[j] = append([]float64(nil), pr.x[(o.vec+j)%len(pr.x)]...)
		packed[j] = make([]byte, 8*len(xs[j]))
		for i, v := range xs[j] {
			binary.LittleEndian.PutUint64(packed[j][8*i:], math.Float64bits(v))
		}
	}
	good := digestFloats(xs)
	if digestPacked(packed) != good {
		return errors.New("self-test: the JSON-wire digest disagrees with the binary-wire digest")
	}
	mid := len(xs[1]) / 2
	xs[1][mid] = math.Float64frombits(math.Float64bits(xs[1][mid]) ^ 1)
	c := &clientState{name: "self-test", ops: []op{o, o}, recs: []rec{
		{op: 0, status: statusOK, digest: good},
		{op: 1, status: statusOK, digest: digestFloats(xs)},
	}}
	for _, p := range suite {
		c.factors = append(c.factors, client.NewFactor(p.l, true))
	}
	res, err := (&checker{suite: suite}).check(c)
	if err != nil {
		return fmt.Errorf("self-test: %w", err)
	}
	if res.checked != 2 || res.wrong != 1 {
		return fmt.Errorf("self-test: flipping one bit of one solution gave %d wrong of %d checked, want 1 of 2", res.wrong, res.checked)
	}
	if c.recs[0].status != statusOK || c.recs[1].status != statusFailed {
		return errors.New("self-test: the check did not mark exactly the flipped answer failed")
	}
	return nil
}

// selfTestStall proves the open-loop generator charges a stall to the
// requests behind it: a send that stalls 40ms at request 3 of a 5ms
// schedule must leave request 4 at least 30ms late, measured from its
// due time, and the generator must catch up by the end.
func selfTestStall() error {
	const period, stall = 5 * time.Millisecond, 40 * time.Millisecond
	var lag [16]time.Duration
	start := time.Now()
	openLoop(start, len(lag), period, func(k int, due time.Time) {
		lag[k] = time.Since(due)
		if k == 3 {
			time.Sleep(stall)
		}
	})
	if lag[4] < stall-period-5*time.Millisecond {
		return fmt.Errorf("self-test: a %s generator stall was not charged to the next request (lag %s)", stall, lag[4])
	}
	if last := lag[len(lag)-1]; last >= lag[4] {
		return fmt.Errorf("self-test: the generator did not catch up after a stall (last lag %s)", last)
	}
	return nil
}
