package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"doconsider/client"
	"doconsider/internal/executor"
	"doconsider/internal/obs"
	"doconsider/internal/plancache"
	"doconsider/internal/planner"
	"doconsider/internal/router"
	"doconsider/internal/server"
	"doconsider/internal/sparse"
	"doconsider/internal/supernode"
	"doconsider/internal/synthetic"
	"doconsider/internal/trisolve"
	"doconsider/internal/wavefront"
)

// span is one timed interval of the traced run. Spans of one request
// share a trace ID; Parent indexes the causing span in the same log,
// -1 for a root. Times are nanoseconds since the run's epoch.
type span struct {
	Name    string `json:"name"`
	TraceID string `json:"trace_id"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct{ spans []span }

func (l *spanLog) add(name, trace string, start, end int64, parent int) int {
	l.spans = append(l.spans, span{Name: name, TraceID: trace, Start: start, End: end, Parent: parent})
	return len(l.spans) - 1
}

// selfTime is a span's duration minus the part of it its children
// cover. Children of one span do not overlap here (a request's server
// record is its client span's only child), so clipped durations add.
func (l *spanLog) selfTime(i int, children []int) int64 {
	s := l.spans[i]
	self := s.End - s.Start
	for _, c := range children {
		lo, hi := max(l.spans[c].Start, s.Start), min(l.spans[c].End, s.End)
		if hi > lo {
			self -= hi - lo
		}
	}
	return self
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced is the per-layer run, in two sessions of dur/2 each. An
// untraced session on the workload's own configuration gives the
// baseline throughput; a second session,
// whose trace ring holds every request, is measured with client spans
// joined by trace ID to the servers' /v1/trace records and bracketed by
// /v1/stats and Router.Stats snapshots. A router-hop probe and the
// layer ladder follow.
func (r *run) traced(res *result, streams [][]op, warmup, dur time.Duration, out string) error {
	var checked checkTotals
	base, thrBase, rate, err := r.baseline(streams, warmup, dur/2, &checked)
	if err != nil {
		return err
	}
	scfg := r.w.Server
	scfg.TraceRing = int(2*rate*(warmup+dur/2).Seconds()) + 1024
	s, _, err := r.setup(scfg, streams)
	if err != nil {
		if s != nil {
			_ = s.st.close()
		}
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = s.st.close()
		}
	}()
	if res.Procs, err = serverProcs(s.st); err != nil {
		return err
	}
	if err := r.drive(s, phaseWarmup, warmup); err != nil {
		return err
	}
	tBefore := r.now()
	before, err := fetchStats(r.ctx, s.st)
	if err != nil {
		return err
	}
	var rBefore router.StatsResponse
	if s.st.cl != nil {
		rBefore = s.st.cl.Router().Stats()
	}
	t0 := r.now()
	if err := r.drive(s, phaseMeasure, dur/2); err != nil {
		return err
	}
	after, err := fetchStats(r.ctx, s.st)
	if err != nil {
		return err
	}
	var rAfter router.StatsResponse
	if s.st.cl != nil {
		rAfter = s.st.cl.Router().Stats()
	}
	traces, err := fetchTraces(r.ctx, s.st, scfg.TraceRing)
	if err != nil {
		return err
	}
	hops, probes, err := r.hopProbe(s)
	if err != nil {
		return err
	}
	closed = true
	if err := s.st.close(); err != nil {
		return err
	}
	if err := checked.add(r, s); err != nil {
		return err
	}
	if err := checked.add(r, &session{clients: probes}); err != nil {
		return err
	}
	m, err := r.measure(s, t0)
	if err != nil {
		return err
	}
	m = combine([]measured{m})
	checked.addShed(s, tBefore, before, after)
	checked.judge(res, m)

	var log spanLog
	r.joinLayers(res, s, traces, &log)
	r.counterLayers(res, s, before, after, rBefore, rAfter)
	setQuantiles(res, "router.hop", hops)
	res.note("router hop probe: %d paired requests, direct vs through a 1-backend router", len(hops))
	res.set("trace.overhead_share", (thrBase-m.throughput)/thrBase, "ratio")
	res.note("tracing overhead: %.1f solves/s untraced vs %.1f traced, %s each; untraced session %d requests",
		thrBase, m.throughput, dur/2, base)
	res.set("failed_share", share(m.failed, m.attempted), "ratio")
	res.set("refused_share", share(m.refused, m.attempted), "ratio")
	res.set("latency_p99_ms", m.p99, "ms")
	if err := r.ladder(res, res.Procs, &log); err != nil {
		return err
	}
	path := filepath.Join(out, "spans", fmt.Sprintf("%s_seed%d_%d.jsonl", r.w.Name, r.seed, time.Now().UnixNano()))
	res.note("spans: %d written to %s", len(log.spans), path)
	return log.write(path)
}

// baseline runs the untraced session of a traced run and returns its
// request count, throughput and request rate.
func (r *run) baseline(streams [][]op, warmup, d time.Duration, checked *checkTotals) (int, float64, float64, error) {
	s, _, err := r.setup(r.w.Server, streams)
	if err != nil {
		if s != nil {
			_ = s.st.close()
		}
		return 0, 0, 0, err
	}
	if err := r.drive(s, phaseWarmup, warmup); err != nil {
		_ = s.st.close()
		return 0, 0, 0, err
	}
	t0 := r.now()
	err = r.drive(s, phaseMeasure, d)
	if cerr := s.st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, 0, err
	}
	if err := checked.add(r, s); err != nil {
		return 0, 0, 0, err
	}
	m, err := r.measure(s, t0)
	if err != nil {
		return 0, 0, 0, err
	}
	m = combine([]measured{m})
	return m.attempted, m.throughput, float64(m.attempted) / d.Seconds(), nil
}

// replicaTrace is one server trace and the replica that recorded it.
type replicaTrace struct {
	server.TraceJSON
	start int64 // Start, in nanoseconds since the run's epoch
}

// fetchTraces reads every replica's trace ring, indexed by trace ID.
// Replicas mint IDs independently, so one ID may name several traces.
func fetchTraces(ctx context.Context, st *stack, limit int) (map[uint64][]replicaTrace, error) {
	idx := map[uint64][]replicaTrace{}
	for _, u := range st.replicaURLs() {
		var tl server.TraceListResponse
		if err := adminClient(u).GetJSON(ctx, fmt.Sprintf("/v1/trace?limit=%d", limit), &tl); err != nil {
			return nil, fmt.Errorf("traces of %s: %w", u, err)
		}
		for _, t := range tl.Traces {
			var id uint64
			if _, err := fmt.Sscanf(t.TraceID, "%x", &id); err != nil {
				continue
			}
			idx[id] = append(idx[id], replicaTrace{TraceJSON: t})
		}
	}
	return idx, nil
}

// join finds the server trace of a record: same ID, same factor
// dimension, and a start inside the client's span (with 1ms of slack
// for clock granularity). Among several, the one starting closest
// after the send wins.
func (r *run) join(idx map[uint64][]replicaTrace, rc *rec, n int) *replicaTrace {
	var best *replicaTrace
	for i := range idx[rc.trace] {
		t := &idx[rc.trace][i]
		t.start = t.Start.Sub(r.epoch).Nanoseconds()
		if t.N != n || t.start < rc.start-1e6 || t.start > rc.end+1e6 {
			continue
		}
		if best == nil || abs64(t.start-rc.start) < abs64(best.start-rc.start) {
			best = t
		}
	}
	return best
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// joinLayers turns the measured phase's latency population into spans
// (client call, server request, server stages) and derives the client
// and server-stage metrics from them.
func (r *run) joinLayers(res *result, s *session, idx map[uint64][]replicaTrace, log *spanLog) {
	stageNames := obs.StageNames()
	var rtt, unattr, totals, lag []float64
	stages := make([][]float64, len(stageNames))
	var sumRTT, sumUnattr int64
	answered, joined := 0, 0
	for _, c := range s.clients {
		for i := range c.recs {
			rc := &c.recs[i]
			if rc.phase != phaseMeasure || !c.latency {
				continue
			}
			lag = append(lag, nsToMs(rc.start-rc.due))
			if rc.status != statusOK {
				continue
			}
			answered++
			o := &c.ops[rc.op]
			id := fmt.Sprintf("%016x", rc.trace)
			name := "client.Factor.Solve"
			if o.edits != nil {
				name = "client.Factor.Drift"
			}
			root := log.add(name, id, rc.start, rc.end, -1)
			rtt = append(rtt, nsToMs(rc.end-rc.start))
			t := r.join(idx, rc, r.suite[o.prob].l.N)
			if t == nil {
				continue
			}
			joined++
			total := int64(t.TotalMs * 1e6)
			srv := log.add("server.request", id, t.start, t.start+total, root)
			off := t.start
			for k, st := range stageNames {
				d := int64(t.Stages[st] * 1e6)
				log.add("server."+st, id, off, off+d, srv)
				off += d
				stages[k] = append(stages[k], t.Stages[st])
			}
			self := log.selfTime(root, []int{srv})
			unattr = append(unattr, nsToMs(self))
			totals = append(totals, t.TotalMs)
			sumRTT += rc.end - rc.start
			sumUnattr += self
		}
	}
	setQuantiles(res, "client.rtt", rtt)
	v, _ := quantile(unattr, 0.5)
	res.set("client.unattributed_p50_ms", v, "ms")
	res.set("client.unattributed_share", share(int(sumUnattr), int(sumRTT)), "ratio")
	for k, st := range stageNames {
		setQuantiles(res, "server."+st, stages[k])
	}
	res.set("server.stage_sum_p50_ms", median(totals), "ms")
	res.set("trace.join_share", share(joined, answered), "ratio")
	v, _ = quantile(lag, 0.99)
	res.set("gen.lag_p99_ms", v, "ms")
	res.note("traced population: %d answered, %d joined to a server trace", answered, joined)
}

// setQuantiles sets <prefix>_p50_ms and <prefix>_p99_ms, noting how
// many samples lie beyond the p99.
func setQuantiles(res *result, prefix string, ms []float64) {
	p50, _ := quantile(ms, 0.5)
	p99, beyond := quantile(ms, 0.99)
	res.set(prefix+"_p50_ms", p50, "ms")
	res.set(prefix+"_p99_ms", p99, "ms")
	if beyond < 10 {
		res.note("%s_p99_ms rests on %d samples, %d beyond it", prefix, len(ms), beyond)
	}
}

// plannerKinds are the planner's candidate decisions as /v1/stats names
// them; anything else counts under "other".
var plannerKinds = []string{"sequential", "pooled", "doacross", "sequential+fused", "pooled+fused"}

// counterLayers derives the metrics that come from counters: /v1/stats
// deltas over the measured phase summed over replicas, lifetime planner
// and supernode outcomes, Router.Stats deltas, and drift affinity.
func (r *run) counterLayers(res *result, s *session, before, after []server.StatsResponse, rb, ra router.StatsResponse) {
	sum := func(f func(server.StatsResponse) uint64) uint64 { return sumStats(before, after, f) }
	requests := sum(func(st server.StatsResponse) uint64 { return st.Coalesce.Requests })
	fused := sum(func(st server.StatsResponse) uint64 { return st.Coalesce.Fused })
	res.set("server.coalesce_rate", share(int(fused), int(requests)), "ratio")
	res.set("server.passes", float64(sum(func(st server.StatsResponse) uint64 { return st.Coalesce.Passes })), "count")
	res.set("server.shed", float64(sum(func(st server.StatsResponse) uint64 { return st.Shed })), "count")
	pc := plancache.Stats{
		Hits:      sum(func(st server.StatsResponse) uint64 { return st.PlanCache.Hits }),
		Coalesced: sum(func(st server.StatsResponse) uint64 { return st.PlanCache.Coalesced }),
		Misses:    sum(func(st server.StatsResponse) uint64 { return st.PlanCache.Misses }),
	}
	res.set("plancache.hit_rate", pc.HitRate(), "ratio")
	repairs := sum(func(st server.StatsResponse) uint64 { return st.Delta.Repairs })
	falls := sum(func(st server.StatsResponse) uint64 { return st.Delta.Fallbacks })
	res.set("delta.repairs", float64(repairs), "count")
	res.set("delta.fallbacks", float64(falls), "count")
	res.set("delta.repair_share", share(int(repairs), int(repairs+falls)), "ratio")

	var rows, fusedRows uint64
	counts := map[string]uint64{}
	for _, st := range after {
		rows += st.Supernode.Rows
		fusedRows += st.Supernode.FusedRows
		for k, n := range st.Planner.Counts {
			counts[k] += n
		}
	}
	res.set("supernode.fused_row_share", share(int(fusedRows), int(rows)), "ratio")
	var other uint64
	for k, n := range counts {
		if !slices.Contains(plannerKinds, k) {
			other += n
		}
	}
	for _, k := range plannerKinds {
		res.set("planner.decisions."+strings.ReplaceAll(k, "+", "_"), float64(counts[k]), "count")
	}
	res.set("planner.decisions.other", float64(other), "count")

	res.set("router.retries", float64(ra.Retries-rb.Retries), "count")
	res.set("router.failures", float64(ra.Failures-rb.Failures), "count")
	maxShare := 1.0 // one server takes everything
	if len(ra.Backends) > 0 {
		var total, top uint64
		for i, b := range ra.Backends {
			d := b.Routed
			for _, o := range rb.Backends {
				if o.Addr == b.Addr {
					d -= o.Routed
				}
			}
			total += d
			if i == 0 || d > top {
				top = d
			}
		}
		maxShare = share(int(top), int(total))
	}
	res.set("router.max_replica_share", maxShare, "ratio")
	drifts, kept := 0, 0
	for _, c := range s.clients {
		for _, rc := range c.recs {
			if rc.phase == phaseMeasure && rc.status == statusOK && c.ops[rc.op].edits != nil {
				drifts++
				if !rc.fellBack {
					kept++
				}
			}
		}
	}
	res.set("router.affinity_share", share(kept, drifts), "ratio")
	res.note("drift requests answered: %d, %d without a full-ship fallback", drifts, kept)
}

// hopProbe measures the router hop on the idle stack with pairs of
// requests, one straight to the first replica and one through a
// 1-backend router.New in front of it, alternating which goes first.
// Each pair's hop is the routed round trip minus the direct one. The probe
// clients are returned so their answers are checked too.
func (r *run) hopProbe(s *session) ([]float64, []*clientState, error) {
	addr := strings.TrimPrefix(s.st.replicaURLs()[0], "http://")
	rt, err := router.New(router.Config{Backends: []string{addr}})
	if err != nil {
		return nil, nil, err
	}
	if err := rt.Start("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()
	n := hopProbePairs
	ops := make([]op, 0, len(r.suite)+n)
	for p := range r.suite {
		ops = append(ops, op{prob: p, width: batchWidth})
	}
	for k := 0; k < n; k++ {
		p := k % len(r.suite)
		ops = append(ops, op{prob: p, vec: k % len(r.suite[p].b), width: batchWidth})
	}
	wire := client.WireBinary
	if r.w.Wire == "json" {
		wire = client.WireJSON
	}
	probe := func(name, url string) *clientState {
		c := &clientState{name: name, ops: ops, recs: make([]rec, 0, len(ops)),
			cli: client.New(url, client.WithWire(wire), client.WithHTTPClient(newHTTPClient(1)))}
		for _, pr := range r.suite {
			c.factors = append(c.factors, client.NewFactor(pr.l, true))
		}
		return c
	}
	direct, routed := probe("probe-direct", "http://"+addr), probe("probe-routed", "http://"+rt.Addr())
	for range r.suite {
		if err := r.issue(direct, phaseProbe, r.now()); err != nil {
			return nil, nil, err
		}
		if err := r.issue(routed, phaseProbe, r.now()); err != nil {
			return nil, nil, err
		}
	}
	hops := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		first, second := direct, routed
		if k%2 == 1 {
			first, second = routed, direct
		}
		if err := r.issue(first, phaseProbe, r.now()); err != nil {
			return nil, nil, err
		}
		if err := r.issue(second, phaseProbe, r.now()); err != nil {
			return nil, nil, err
		}
		d, v := direct.recs[len(direct.recs)-1], routed.recs[len(routed.recs)-1]
		if d.status == statusOK && v.status == statusOK {
			hops = append(hops, nsToMs((v.end-v.start)-(d.end-d.start)))
		}
	}
	return hops, []*clientState{direct, routed}, nil
}

// ladderKinds are the executor strategies the ladder times, each pinned
// with WithKind; pooled-fused forces supernodal fusion on the pool.
var ladderKinds = []struct {
	name string
	opts []trisolve.Option
}{
	{"sequential", []trisolve.Option{trisolve.WithKind(executor.Sequential)}},
	{"prescheduled", []trisolve.Option{trisolve.WithKind(executor.PreScheduled)}},
	{"self-executing", []trisolve.Option{trisolve.WithKind(executor.SelfExecuting)}},
	{"pooled", []trisolve.Option{trisolve.WithKind(executor.Pooled)}},
	{"pooled-fused", []trisolve.Option{trisolve.WithKind(executor.Pooled), trisolve.WithFusion(trisolve.FuseForce)}},
}

const (
	// ladderDriftEdits matches drift-cluster's row edits per drift step.
	ladderDriftEdits = 4
	// ladderReps is the repetitions per timed ladder call; figures are
	// their medians.
	ladderReps = 9
	// regretMargin is how much slower than the fastest executor in the
	// ladder the planner's pick may measure before it counts as regret.
	regretMargin = 0.10
	// hopProbePairs is the paired requests of the router hop probe.
	hopProbePairs = 1200
)

// ladder times each layer's public functions directly on every suite
// problem, with the servers' processors per plan, and checks the
// answers of every plan it solves with.
func (r *run) ladder(res *result, procs int, log *spanLog) error {
	reps := ladderReps
	rng := rand.New(rand.NewSource(r.seed))
	nsPerRow := make(map[string][]float64)
	var passUs, wfMs, detectMs, selectUs, hitUs, buildMs, repairMs []float64
	regrets, repaired := 0, 0
	for _, pr := range r.suite {
		trace := "ladder/" + pr.name
		deps := wavefront.FromLower(pr.l)
		timed := func(name string, k int, f func() error) (float64, error) {
			var ns []float64
			for i := 0; i < k; i++ {
				t := r.now()
				if err := f(); err != nil {
					return 0, fmt.Errorf("%s on %s: %w", name, pr.name, err)
				}
				e := r.now()
				log.add(name, trace, t, e, -1)
				ns = append(ns, float64(e-t))
			}
			return median(ns), nil
		}
		// pass times one SolveBatch at the suite batch width and checks
		// the answer against the reference.
		pass := func(name string, opts ...trisolve.Option) (float64, error) {
			plan, err := trisolve.NewPlan(pr.l, true, append(opts, trisolve.WithProcs(procs))...)
			if err != nil {
				return 0, err
			}
			defer plan.Close()
			bs, want := pr.b[:batchWidth], pr.x[:batchWidth]
			xs := make([][]float64, len(bs))
			for j := range xs {
				xs[j] = make([]float64, pr.l.N)
			}
			solve := func() error { _, err := plan.SolveBatch(xs, bs); return err }
			for i := 0; i < 2; i++ {
				if err := solve(); err != nil {
					return 0, err
				}
			}
			ns, err := timed(name, 3*reps, solve)
			if err == nil && digestFloats(xs) != digestFloats(want) {
				err = fmt.Errorf("%s on %s: answer differs from the sequential reference", name, pr.name)
			}
			return ns, err
		}
		best := 0.0
		for _, k := range ladderKinds {
			ns, err := pass("executor."+k.name+".SolveBatch", k.opts...)
			if err != nil {
				return err
			}
			nsPerRow[k.name] = append(nsPerRow[k.name], ns/float64(pr.l.N))
			if best == 0 || ns < best {
				best = ns
			}
		}
		chosen, err := pass("executor.planned.SolveBatch")
		if err != nil {
			return err
		}
		passUs = append(passUs, chosen/1e3)
		if chosen > (1+regretMargin)*best {
			regrets++
		}

		ms, err := timed("wavefront.Compute", reps, func() error { _, err := wavefront.Compute(deps); return err })
		if err != nil {
			return err
		}
		wfMs = append(wfMs, ms/1e6)
		ms, err = timed("supernode.Detect", reps, func() error { supernode.Detect(deps, supernode.Config{}); return nil })
		if err != nil {
			return err
		}
		detectMs = append(detectMs, ms/1e6)
		us, err := timed("planner.AnalyzeSelect", reps, func() error {
			planner.Select(planner.Analyze(deps, pr.wf, procs), nil)
			return nil
		})
		if err != nil {
			return err
		}
		selectUs = append(selectUs, us/1e3)

		opt := trisolve.WithProcs(procs)
		get := func(pc *trisolve.PlanCache, opts ...trisolve.Option) error {
			p, err := pc.Get(pr.l, true, append(opts, opt)...)
			if err != nil {
				return err
			}
			return p.Close()
		}
		pc := trisolve.NewPlanCache(16)
		if err := get(pc); err != nil {
			return err
		}
		us, err = timed("plancache.Get.hit", reps, func() error { return get(pc) })
		if cerr := pc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		hitUs = append(hitUs, us/1e3)
		ms, err = timed("plancache.Get.build", reps, func() error {
			pc := trisolve.NewPlanCache(16)
			err := get(pc)
			if cerr := pc.Close(); err == nil {
				err = cerr
			}
			return err
		})
		if err != nil {
			return err
		}
		buildMs = append(buildMs, ms/1e6)
		ms, ok, err := r.repairLadder(pr, rng, procs, reps, log)
		if err != nil {
			return err
		}
		repairMs = append(repairMs, ms)
		repaired += ok
	}
	for _, k := range ladderKinds {
		res.set("executor."+k.name+".ns_per_row", median(nsPerRow[k.name]), "ns")
	}
	res.set("executor.pass_us", median(passUs), "us")
	res.set("planner.regret_share", share(regrets, len(r.suite)), "ratio")
	res.set("planner.select_us", mean(selectUs), "us")
	res.set("wavefront.compute_ms", mean(wfMs), "ms")
	res.set("supernode.detect_ms", mean(detectMs), "ms")
	res.set("trisolve.plan_hit_us", mean(hitUs), "us")
	res.set("trisolve.plan_build_ms", mean(buildMs), "ms")
	res.set("trisolve.repair_ms", mean(repairMs), "ms")
	res.note("ladder: %d reps per layer per problem (3x for executor passes); regret margin %.0f%%; %d of %d repair lookups repaired",
		reps, 100*regretMargin, repaired, reps*len(r.suite))
	return nil
}

// repairLadder times PlanCache.Get on a drifted factor whose base plan
// is resident, with the drift hint the server passes, and checks the
// repaired plan's answer. It returns the median milliseconds and how
// many lookups were served by repair rather than a rebuild.
func (r *run) repairLadder(pr *problem, rng *rand.Rand, procs, reps int, log *spanLog) (float64, int, error) {
	edits := synthetic.DriftLower(rng, pr.l, pr.wf, ladderDriftEdits, 0.3)
	drifted, err := pr.l.ApplyRowEdits(edits)
	if err != nil {
		return 0, 0, err
	}
	rows := make([]int32, len(edits))
	for i, e := range edits {
		rows[i] = e.Row
	}
	baseFp := pr.l.StructureFingerprint()
	var ns []float64
	repaired := 0
	for i := 0; i < reps; i++ {
		pc := trisolve.NewPlanCache(16)
		p, err := pc.Get(pr.l, true, trisolve.WithProcs(procs))
		if err == nil {
			err = p.Close()
		}
		if err != nil {
			pc.Close()
			return 0, 0, err
		}
		t := r.now()
		p, err = pc.Get(drifted, true, trisolve.WithProcs(procs), trisolve.WithDriftHint(baseFp, rows))
		e := r.now()
		if err != nil {
			pc.Close()
			return 0, 0, err
		}
		log.add("plancache.Get.repair", "ladder/"+pr.name, t, e, -1)
		ns = append(ns, float64(e-t))
		repaired += int(pc.DeltaStats().Repairs)
		if i == 0 {
			err = checkPlan(p, drifted, pr)
		}
		if cerr := p.Close(); err == nil {
			err = cerr
		}
		if cerr := pc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, fmt.Errorf("repaired plan of %s: %w", pr.name, err)
		}
	}
	return median(ns) / 1e6, repaired, nil
}

// checkPlan solves the first pool vector with p and compares the answer
// with the reference on l.
func checkPlan(p *trisolve.Plan, l *sparse.CSR, pr *problem) error {
	want := make([]float64, l.N)
	if err := forwardRef(l, want, pr.b[0]); err != nil {
		return err
	}
	xs := [][]float64{make([]float64, l.N)}
	if _, err := p.SolveBatch(xs, pr.b[:1]); err != nil {
		return err
	}
	if digestFloats(xs) != digestFloats([][]float64{want}) {
		return fmt.Errorf("answer differs from the sequential reference")
	}
	return nil
}
