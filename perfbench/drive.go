package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"doconsider/client"
	"doconsider/internal/router"
	"doconsider/internal/server"
)

// stack is the serving tier under test, started through its public
// constructors: one server.New, or a router.NewCluster of replicas.
type stack struct {
	srv *server.Server
	cl  *router.Cluster
}

func startStack(w *workload, scfg server.Config) (*stack, error) {
	if w.Replicas > 1 {
		cl, err := router.NewCluster(w.Replicas, scfg, w.Router, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return &stack{cl: cl}, nil
	}
	s, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &stack{srv: s}, nil
}

// url is the front door the load goes to.
func (s *stack) url() string {
	if s.cl != nil {
		return s.cl.URL()
	}
	return "http://" + s.srv.Addr()
}

// replicaURLs lists every server's own address, for /v1/stats and
// /v1/trace.
func (s *stack) replicaURLs() []string {
	if s.cl == nil {
		return []string{"http://" + s.srv.Addr()}
	}
	var urls []string
	for _, a := range s.cl.Addrs() {
		urls = append(urls, "http://"+a)
	}
	return urls
}

func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.cl != nil {
		return s.cl.Close(ctx)
	}
	return s.srv.Shutdown(ctx)
}

// Record statuses.
const (
	statusOK      uint8 = iota // 200 with a well-shaped answer (checked later)
	statusRefused              // honest 429/503 shedding
	statusFailed               // transport error, unexpected status, malformed or wrong answer
)

// Phases a record can belong to.
const (
	phaseSetup uint8 = iota
	phaseWarmup
	phaseMeasure
	phaseProbe
)

// rec is one request as the client saw it. Times are nanoseconds since
// the run's epoch. due is when the request was due to be sent: its
// schedule slot in the open loop, the previous reply in a closed loop.
type rec struct {
	op              int32
	phase           uint8
	status          uint8
	fellBack        bool
	due, start, end int64
	digest          uint64
	trace           uint64 // server trace ID, 0 when none came back
}

// clientState is one load goroutine: its connection-sharing client,
// its own Factor handles (so drift chains are private and replayable),
// its pre-generated stream and the records it produced.
type clientState struct {
	name    string
	latency bool // member of the population behind latency_p50/p99_ms
	cli     *client.Client
	factors []*client.Factor
	ops     []op
	next    int
	recs    []rec
	failMsg string
}

var errExhausted = errors.New("request stream exhausted before the deadline; raise max_requests_per_client_per_s in workloads.json")

// run is one benchmark process's shared state.
type run struct {
	w     *workload
	seed  int64
	suite []*problem
	epoch time.Time
	ctx   context.Context
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// adminClient reads stats and traces; it is not part of the load.
func adminClient(url string) *client.Client { return client.New(url) }

// newHTTPClient bounds the load to one connection per load goroutine.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// issue sends the client's next request and records it. The answer's
// digest is taken after the reply is timed.
func (r *run) issue(c *clientState, phase uint8, due int64) error {
	if c.next >= len(c.ops) {
		return errExhausted
	}
	idx := c.next
	c.next++
	o := &c.ops[idx]
	pr := r.suite[o.prob]
	f := c.factors[o.prob]
	bs := pr.rhs(o)
	start := r.now()
	var resp *client.Response
	var err error
	fell := false
	if o.edits != nil {
		resp, fell, err = f.Drift(r.ctx, c.cli, f.State(), o.edits, bs)
	} else {
		resp, err = f.Solve(r.ctx, c.cli, bs)
	}
	rc := rec{op: int32(idx), phase: phase, due: due, start: start, end: r.now(), fellBack: fell}
	var ae *client.APIError
	switch {
	case err == nil:
		rc.trace, _ = strconv.ParseUint(resp.TraceID, 16, 64)
		if shapeErr := answerShape(resp, o.width, pr.l.N); shapeErr != "" {
			rc.status = statusFailed
			c.noteFailure(shapeErr)
		} else if resp.X != nil {
			rc.digest = digestFloats(resp.X)
		} else {
			rc.digest = digestPacked(resp.X64)
		}
	case errors.As(err, &ae) && ae.Overloaded():
		rc.status = statusRefused
		rc.trace, _ = strconv.ParseUint(ae.TraceID, 16, 64)
	default:
		rc.status = statusFailed
		c.noteFailure(err.Error())
	}
	c.recs = append(c.recs, rc)
	return nil
}

func answerShape(resp *client.Response, width, n int) string {
	if len(resp.X)+len(resp.X64) != width {
		return fmt.Sprintf("200 with %d solutions, want %d", len(resp.X)+len(resp.X64), width)
	}
	for _, x := range resp.X {
		if len(x) != n {
			return fmt.Sprintf("solution of length %d, want %d", len(x), n)
		}
	}
	for _, x := range resp.X64 {
		if len(x) != 8*n {
			return fmt.Sprintf("packed solution of %d bytes, want %d", len(x), 8*n)
		}
	}
	return ""
}

func (c *clientState) noteFailure(msg string) {
	if c.failMsg == "" {
		c.failMsg = msg
	}
}

// newClients builds fresh client states over the streams: one Factor
// handle per suite problem per client, on a client for the stack's
// front door. In the open-loop mix client 0 is the latency tenant and
// client 1 the batch tenant.
func (r *run) newClients(url string, streams [][]op) []*clientState {
	wire := client.WireBinary
	if r.w.Wire == "json" {
		wire = client.WireJSON
	}
	base := client.New(url, client.WithWire(wire), client.WithHTTPClient(newHTTPClient(len(streams))))
	cs := make([]*clientState, len(streams))
	for i, ops := range streams {
		c := &clientState{name: fmt.Sprintf("client-%d", i), latency: true, cli: base, ops: ops,
			recs: make([]rec, 0, min(len(ops), 1<<14))}
		if r.w.openLoop() {
			if i == 0 {
				c.name, c.cli = "latency-tenant", base.ForTenant("lat", "latency")
			} else {
				c.name, c.latency, c.cli = "batch-tenant", false, base.ForTenant("bulk", "batch")
			}
		}
		for _, pr := range r.suite {
			c.factors = append(c.factors, client.NewFactor(pr.l, true))
		}
		cs[i] = c
	}
	return cs
}

// session is one stack with the clients driving it.
type session struct {
	st      *stack
	clients []*clientState
}

// setup constructs the stack and registers every suite factor of every
// client with a full ship (the inspector and plan build a user pays
// once), returning how long that took. Registration answers are
// recorded and checked like all others.
func (r *run) setup(scfg server.Config, streams [][]op) (*session, time.Duration, error) {
	t0 := time.Now()
	st, err := startStack(r.w, scfg)
	if err != nil {
		return nil, 0, err
	}
	s := &session{st: st, clients: r.newClients(st.url(), streams)}
	for _, c := range s.clients {
		for range r.suite {
			if err := r.issue(c, phaseSetup, r.now()); err != nil {
				return s, 0, err
			}
			if last := c.recs[len(c.recs)-1]; last.status != statusOK {
				return s, 0, fmt.Errorf("registering %s: %s", r.suite[c.ops[last.op].prob].name, c.failMsg)
			}
		}
	}
	return s, time.Since(t0), nil
}

// drive runs the session's load for d: closed-loop clients, or the
// open-loop latency tenant beside the closed-loop batch flood. It
// returns when every client has its last reply.
func (r *run) drive(s *session, phase uint8, d time.Duration) error {
	deadline := time.Now().Add(d)
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.w.openLoop() && i == 0 {
				errs[i] = r.driveOpen(c, phase, d)
				return
			}
			due := r.now()
			for time.Now().Before(deadline) {
				if err := r.issue(c, phase, due); err != nil {
					errs[i] = fmt.Errorf("%s: %w", c.name, err)
					return
				}
				due = c.recs[len(c.recs)-1].end
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// driveOpen sends the latency tenant's requests on its fixed schedule.
func (r *run) driveOpen(c *clientState, phase uint8, d time.Duration) error {
	period := time.Duration(float64(time.Second) / r.w.LatencyRate)
	var err error
	openLoop(time.Now(), int(d/period), period, func(_ int, due time.Time) {
		if err == nil {
			err = r.issue(c, phase, int64(due.Sub(r.epoch)))
		}
	})
	return err
}

// openLoop calls send for k = 0..n-1 at start+k*period, or as soon as
// the previous send returns when that is later. The caller times each
// request from its due time, so a stall is charged to every request
// scheduled behind it.
func openLoop(start time.Time, n int, period time.Duration, send func(k int, due time.Time)) {
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		send(k, due)
	}
}
