package main

import (
	"math"
	"reflect"
	"testing"
)

// The self-tests also run at the start of every benchmark run; here
// they run without a server.
func TestCheckRejectsOneFlippedBit(t *testing.T) {
	suite, err := loadSuite(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := selfTestCheck(suite); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorStallIsChargedToLaterRequests(t *testing.T) {
	if err := selfTestStall(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	suite, err := loadSuite(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := []streamSpec{{n: 200, width: 4, driftRate: 0.3, driftEdits: 4}}
	a, err := genStreams(7, suite, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genStreams(7, suite, spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genStreams(8, suite, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated the same stream")
	}
	drifts := 0
	for _, o := range a[0] {
		if o.edits != nil {
			drifts++
		}
	}
	if drifts == 0 {
		t.Fatal("a 30% drift stream carries no drift edits")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if v, beyond := quantile(xs, 0.99); v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v := median([]float64{3, 1, 2}); v != 2 {
		t.Fatalf("median = %v, want 2", v)
	}
}

// A wrong answer marked by the check counts as failed, not ok, in the
// figures taken afterwards: it adds no solves and misses the limit.
func TestWrongAnswerCountsAsFailed(t *testing.T) {
	r := &run{w: &workload{SLOMs: 10}}
	c := &clientState{latency: true, ops: []op{{width: 4}, {width: 4}}, recs: []rec{
		{op: 0, phase: phaseMeasure, status: statusOK, start: 1e6, end: 2e6},
		{op: 1, phase: phaseMeasure, status: statusFailed, start: 2e6, end: 3e6},
	}}
	m, err := r.measure(&session{clients: []*clientState{c}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.attempted != 2 || m.ok != 1 || m.failed != 1 || m.sloMet != 1 || len(m.lat) != 1 {
		t.Fatalf("attempted %d ok %d failed %d slo met %d answered %d, want 2 1 1 1 1",
			m.attempted, m.ok, m.failed, m.sloMet, len(m.lat))
	}
	var solves float64
	for _, w := range m.windows {
		solves += w * float64(3e6) / throughputWindows / 1e9
	}
	if math.Abs(solves-4) > 1e-9 {
		t.Fatalf("throughput windows hold %v solves, want the 4 of the correct answer", solves)
	}
}

// The shed accounting fails the run when the clients' refused count and
// the servers' shed delta disagree, and a failed request fails it too.
func TestJudgeRejectsBrokenAccounting(t *testing.T) {
	for _, tc := range []struct {
		refused int
		shed    uint64
		failed  int
		correct bool
	}{
		{refused: 5, shed: 5, correct: true},
		{refused: 5, shed: 4},
		{refused: 0, shed: 1},
		{refused: 2, shed: 2, failed: 1},
	} {
		res := &result{Correct: true}
		t.Run("", func(t *testing.T) {
			ck := checkTotals{refused: tc.refused, shed: tc.shed}
			ck.judge(res, measured{attempted: 10, failed: tc.failed})
			if res.Correct != tc.correct {
				t.Fatalf("refused %d, shed %d, failed %d: correct = %v, want %v",
					tc.refused, tc.shed, tc.failed, res.Correct, tc.correct)
			}
		})
	}
}
