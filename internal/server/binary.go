package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"doconsider/internal/arena"
	"doconsider/internal/obs"
	"doconsider/internal/sparse"
	"doconsider/internal/trisolve"
)

// The binary wire path. POST /v1/trisolve with Content-Type
// application/x-doconsider-frame (see frame.go for the format) decodes
// by slicing the request frame, solves through the coalescer's
// zero-alloc prepared-submit path, and encodes the response into arena
// memory the solver already wrote the solutions into. A warm
// fp-resubmission request — the shape this server is built around —
// performs zero heap allocations from frame bytes to response bytes
// (the gated BenchmarkBinaryRequest/fp-warm pins this; the HTTP
// transport around it allocates per request as net/http always does).

// reqState is the pooled per-request state of the binary path: the
// request arena plus reusable decode scratch. sync.Pool recycles the
// struct; the arena pool recycles the memory.
type reqState struct {
	arena *arena.Arena
	req   wireRequest
	sects []frameSection
	creq  coReq
	// Trace state rides in the pooled struct so stamping and level
	// sampling add no per-request allocations on the warm path.
	tr     obs.Trace
	lc     obs.LevelClock
	bstats trisolve.BuildStats
	// Tenant attribution: set from the header by the HTTP handler,
	// overridden by the frame's tenant section once decoded; direct
	// SolveFrame callers get the default tenant. Pointer reads and
	// counter increments only — no allocation on the warm path.
	tenant *tenantState
	class  Class
	// leaked marks state an abandoned pass may still reference (the
	// handler gave up on a cancelled submit while the pass kept its
	// *coReq); such state must be surrendered to the GC, not recycled.
	leaked bool
}

// getReqState pairs pooled scratch with a fresh request arena.
func (s *Server) getReqState() *reqState {
	st := s.reqPool.Get().(*reqState)
	st.arena = s.arenas.Get()
	return st
}

// putReqState releases the handler's arena reference and recycles the
// scratch. A detached pass may still hold its own arena reference; the
// arena returns to the pool when the last reference drops.
func (s *Server) putReqState(st *reqState) {
	st.arena.Release()
	st.arena = nil
	if st.leaked {
		// A detached pass may still write st.creq, st.bstats and st.lc;
		// recycling the struct would hand those writes to an unrelated
		// request. Cancellation is rare — let the GC collect it once the
		// pass drops its pointer.
		return
	}
	st.req.reset()
	st.creq = coReq{}
	st.tr = obs.Trace{}
	st.bstats = trisolve.BuildStats{}
	st.tenant = nil
	st.class = ClassBatch
	s.reqPool.Put(st)
}

// isFrameRequest reports whether the request selected the binary
// protocol. Parameters after the media type are tolerated.
func isFrameRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == FrameContentType {
		return true
	}
	return len(ct) > len(FrameContentType) && ct[:len(FrameContentType)] == FrameContentType &&
		(ct[len(FrameContentType)] == ';' || ct[len(FrameContentType)] == ' ')
}

// handleTrisolveBinary serves one binary-frame request. Admission
// control already ran in handleTrisolve; t0 is that handler's entry
// time, so the trace's admission stage covers the shared front door.
// ten/class are the header-resolved identity admission used; the
// frame's tenant section, when present, overrides them for
// attribution.
func (s *Server) handleTrisolveBinary(w http.ResponseWriter, r *http.Request, t0 time.Time,
	ten *tenantState, class Class) {
	st := s.getReqState()
	defer s.putReqState(st)
	st.tenant = ten
	st.class = class
	st.tr.Begin(obs.WireBinary, t0)
	st.tr.Lap(obs.StageAdmission)
	body, err := readFrameBody(r, st.arena)
	if err != nil {
		writeFrame(w, http.StatusBadRequest, encodeErrorFrame(http.StatusBadRequest, "bad frame body: "+err.Error(), 0))
		return
	}
	st.tr.Lap(obs.StageDecode)
	// The transport owns the default deadline; a timeout section can only
	// tighten it (unlike JSON's timeout_ms, which replaces the default —
	// the README documents the difference).
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	frame, status := s.SolveFrame(ctx, body, st)
	writeFrame(w, status, frame)
}

// writeFrame emits a response frame.
func writeFrame(w http.ResponseWriter, status int, frame []byte) {
	w.Header().Set("Content-Type", FrameContentType)
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

// readFrameBody reads the request body into arena memory: one
// ReadFull into an exact-size buffer when Content-Length is declared,
// a geometric-growth loop otherwise. Both are bounded by
// MaxFrameBytes, mirroring the JSON path's MaxBytesReader.
func readFrameBody(r *http.Request, a *arena.Arena) ([]byte, error) {
	if r.ContentLength > MaxFrameBytes {
		return nil, fmt.Errorf("frame has %d bytes, limit %d", r.ContentLength, MaxFrameBytes)
	}
	if r.ContentLength >= 0 {
		buf := a.Bytes(int(r.ContentLength))
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := a.Bytes(64 << 10)
	total := 0
	for {
		if total == len(buf) {
			next := a.Bytes(2 * len(buf))
			copy(next, buf[:total])
			buf = next
		}
		n, err := r.Body.Read(buf[total:])
		total += n
		if total > MaxFrameBytes {
			return nil, fmt.Errorf("frame exceeds %d bytes", MaxFrameBytes)
		}
		if err == io.EOF {
			return buf[:total], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// SolveFrame executes one binary request frame end to end — decode,
// factor resolution, solve, response encode — and returns the response
// frame with its HTTP status. The response bytes live in st's arena
// (valid until putReqState) on success, on the heap for error frames.
// ctx carries the transport deadline; a timeout section tightens it.
// This is the boundary the 0 allocs/op gate measures: on a warm
// fp-resubmission (factor hot, arena pooled, solver memoized, no
// timeout section) the call performs no heap allocations — including
// trace publication, which this wrapper performs so the gate covers it.
func (s *Server) SolveFrame(ctx context.Context, in []byte, st *reqState) ([]byte, int) {
	if !st.tr.Active() {
		// Direct callers (tests, benchmarks) skip handleTrisolveBinary;
		// their traces start here.
		st.tr.Begin(obs.WireBinary, time.Now())
	}
	if st.tenant == nil {
		st.tenant = s.tenants.def
	}
	frame, status := s.solveFrame(ctx, in, st)
	s.tracer.publish(&st.tr, obs.StageEncode, status)
	// Tenant accounting is inside the 0 allocs/op boundary: a counter
	// increment and a histogram observe, both lock-free.
	st.tenant.observe(st.class, st.tr.TotalNs)
	return frame, status
}

func (s *Server) solveFrame(ctx context.Context, in []byte, st *reqState) ([]byte, int) {
	q := &st.req
	if err := parseRequestFrame(in, st.arena, q, st.sects); err != nil {
		return errorFrame(http.StatusBadRequest, "bad frame: "+err.Error(), st.tr.ID)
	}
	st.tr.ID = q.traceID
	if !q.hasTrace || q.traceID == 0 {
		st.tr.ID = s.tracer.nextID()
	}
	if q.hasTenant {
		// The frame names its tenant: authoritative for attribution (the
		// header the handler resolved drove admission, which is already
		// done). A known tenant resolves with no allocation.
		st.tenant = s.tenants.resolveBytes(q.tenant)
		st.class = q.class
	}
	st.tr.SetTenant(st.tenant.name, byte(st.class))
	st.tr.Lap(obs.StageDecode)
	l, fp, hint, err := s.resolveFrameFactor(q, st.arena)
	if err != nil {
		if errors.Is(err, errUnknownFactor) {
			return errorFrame(http.StatusNotFound, err.Error(), st.tr.ID)
		}
		return errorFrame(http.StatusBadRequest, err.Error(), st.tr.ID)
	}
	st.tr.Lap(obs.StageFactor)
	if q.k == 0 {
		return errorFrame(http.StatusBadRequest, "request has no right-hand sides", st.tr.ID)
	}
	rowLen := len(q.rhsFlat) / q.k
	bs := st.arena.Rows(q.k)
	for j := 0; j < q.k; j++ {
		bs[j] = q.rhsFlat[j*rowLen : (j+1)*rowLen : (j+1)*rowLen]
	}
	if err := validateRHS(bs, l.N, s.cfg.MaxBatch); err != nil {
		return errorFrame(http.StatusBadRequest, err.Error(), st.tr.ID)
	}
	st.tr.Lap(obs.StageDecode)
	if q.timeoutMs < 0 {
		// Mirror the JSON path: a negative timeout is rejected, not
		// silently ignored (the count field decodes as signed int32).
		return errorFrame(http.StatusBadRequest,
			fmt.Sprintf("timeout must not be negative, got %dms", q.timeoutMs), st.tr.ID)
	}
	if q.timeoutMs > 0 {
		const maxTimeoutMs = 24 * 60 * 60 * 1000
		ms := q.timeoutMs
		if ms > maxTimeoutMs {
			ms = maxTimeoutMs
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	frame, lo, xs := newResponseFrame(st.arena, q.k, l.N)
	st.tr.Lap(obs.StageEncode)
	creq := &st.creq
	*creq = coReq{l: l, lower: q.lower, xs: xs, bs: bs, hint: hint, class: st.class}
	st.bstats = trisolve.BuildStats{}
	creq.bstats = &st.bstats
	if s.tracer.sampler.Sample() {
		// Level sampling: the pooled clock is installed for this request
		// only; the timed executor body is memoized per solver, so even a
		// sample-every-request configuration allocates nothing warm.
		st.lc.Reset()
		creq.lc = &st.lc
	}
	// The pass writes solutions straight into the response frame; give
	// it its own arena reference in case it outlives this handler.
	st.arena.Retain()
	creq.held = st.arena
	info, err := s.co.SubmitInto(ctx, creq)
	if err != nil {
		// The pass behind an abandoned submit may still be running with
		// our *coReq: don't read the shared observability fields, and
		// mark the pooled state so it is leaked rather than recycled.
		st.leaked = true
		st.tr.AttributeSubmit(0, 0, 0)
		code, msg := solveErrorStatus(err)
		return errorFrame(code, msg, st.tr.ID)
	}
	st.tr.AttributeSubmit(info.PlanNs, st.bstats.RepairNs, info.ExecNs)
	st.tr.SetInfo(l.N, q.k, info.Fused, info.Width, info.Strategy)
	st.tr.Inline = info.Metrics.Inline
	if creq.lc != nil {
		st.lc.FillTrace(&st.tr)
	}
	return finishResponseFrame(frame, lo, xs, fp, info, st.tr.ID), http.StatusOK
}

func errorFrame(status int, msg string, tid uint64) ([]byte, int) {
	return encodeErrorFrame(status, msg, tid), status
}

// resolveFrameFactor is resolveFactor for decoded frames. The warm fp
// path goes through the hot-factor table and allocates nothing; inline
// and drift forms are cold paths sharing the JSON machinery's
// validation and registration helpers.
func (s *Server) resolveFrameFactor(q *wireRequest, a *arena.Arena) (*sparse.CSR, uint64, *driftHint, error) {
	forms := 0
	if q.hasFp {
		forms++
	}
	if q.hasBaseFp {
		forms++
	}
	inline := q.n != 0 || q.rowPtr != nil || q.colIdx != nil || q.val != nil
	if inline {
		forms++
	}
	if forms > 1 {
		return nil, 0, nil, errors.New("request carries more than one of: a factor, fp, base_fp; send one")
	}
	if len(q.edits) > 0 && !q.hasBaseFp {
		return nil, 0, nil, errors.New("edits require base_fp")
	}
	switch {
	case q.hasFp:
		l, err := s.frameFactorByFp(q.fp, q.lower)
		return l, q.fp, nil, err
	case q.hasBaseFp:
		return s.resolveFrameDrifted(q)
	case !inline:
		return nil, 0, nil, errors.New("request carries no factor (inline matrix, fp or base_fp)")
	}
	// Inline factor: validate on the zero-copy views, then clone out of
	// the frame memory before registering — the cache outlives the
	// request arena.
	wire := sparse.View(q.n, q.rowPtr, q.colIdx, q.val)
	if err := validateFactor(wire, q.lower); err != nil {
		return nil, 0, nil, err
	}
	l, fp, release := s.registerFactor(wire.Clone(), q.lower)
	release() // factors need no pin: eviction is a no-op Close, see below
	s.hotInsert(fp, q.lower, l)
	return l, fp, nil, nil
}

// frameFactorByFp resolves a resubmitted fingerprint: hot table first
// (no allocation), factor cache second. No pin is taken — a
// cachedFactor's Close is a no-op and the returned *CSR keeps the
// values alive through the solve, so eviction during the solve is
// harmless. The hot table may briefly serve a factor the cache has
// evicted; that is the same answer a request a moment earlier would
// have gotten, for a factor identified by its content.
func (s *Server) frameFactorByFp(fp uint64, lower bool) (*sparse.CSR, error) {
	if l := s.hotLookup(fp, lower); l != nil {
		// The ring serves what the cache would have: count the hit so
		// factor-cache telemetry stays truthful for binary traffic.
		s.factors.NoteHit()
		return l, nil
	}
	h, err := s.factors.Get(fp, func() (cachedFactor, error) {
		return cachedFactor{}, errUnknownFactor
	})
	if err != nil {
		return nil, err
	}
	cf := h.Value()
	_ = h.Release()
	if cf.lower != lower {
		return nil, fmt.Errorf("factor %016x was registered for lower=%v", fp, cf.lower)
	}
	s.hotInsert(fp, lower, cf.l)
	return cf.l, nil
}

// resolveFrameDrifted is resolveDrifted for decoded frames.
func (s *Server) resolveFrameDrifted(q *wireRequest) (*sparse.CSR, uint64, *driftHint, error) {
	if len(q.edits) == 0 {
		return nil, 0, nil, errors.New("base_fp requires edits (use fp to resubmit unchanged)")
	}
	base, err := s.frameFactorByFp(q.baseFp, q.lower)
	if err != nil {
		return nil, 0, nil, err
	}
	l, err := base.ApplyRowEdits(q.edits)
	if err != nil {
		return nil, 0, nil, err
	}
	rows := make([]int32, 0, len(q.edits))
	for _, e := range q.edits {
		rows = append(rows, e.Row)
	}
	if err := validateFactorRows(l, rows, q.lower); err != nil {
		return nil, 0, nil, err
	}
	hint := &driftHint{baseStructFp: base.StructureFingerprint(), rows: rows}
	l, fp, release := s.registerFactor(l, q.lower)
	release()
	s.hotInsert(fp, q.lower, l)
	return l, fp, hint, nil
}

// The hot-factor table is a short ring scanned under a mutex, sized by
// Config.HotFactorCap (default 8) for the working set of a warm serving
// mix.
type hotFactor struct {
	fp    uint64
	lower bool
	l     *sparse.CSR
}

// hotLookup scans the hot-factor ring. Zero allocations.
func (s *Server) hotLookup(fp uint64, lower bool) *sparse.CSR {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	for i := range s.hot {
		if s.hot[i].fp == fp && s.hot[i].lower == lower && s.hot[i].l != nil {
			return s.hot[i].l
		}
	}
	return nil
}

// hotInsert records a resolved factor, overwriting the oldest slot. A
// fingerprint collision (fp 0 from registerFactor) is never cached.
func (s *Server) hotInsert(fp uint64, lower bool, l *sparse.CSR) {
	if fp == 0 || len(s.hot) == 0 {
		return
	}
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	for i := range s.hot {
		if s.hot[i].fp == fp && s.hot[i].lower == lower {
			s.hot[i].l = l
			return
		}
	}
	s.hot[s.hotNext] = hotFactor{fp: fp, lower: lower, l: l}
	s.hotNext = (s.hotNext + 1) % len(s.hot)
}
