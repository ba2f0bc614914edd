package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bimodal/internal/spec"
	"bimodal/internal/store"
	"bimodal/internal/telemetry"
)

// Config sizes the sweep server.
type Config struct {
	// QueueDepth bounds the number of accepted-but-not-started sweeps;
	// submissions beyond it are rejected with 429. Default 64.
	QueueDepth int
	// Workers is the number of sweeps executed concurrently. Default 2.
	Workers int
	// JobTimeout caps one sweep's wall-clock run time. 0 = none.
	JobTimeout time.Duration
	// MaxSweepCells bounds cells per sweep. Default 10000; < 0 disables.
	MaxSweepCells int
	// SweepFanout bounds the number of sweep cells resolved concurrently
	// (store lookups are serial; this is dispatch concurrency). 0 selects
	// NumCPU — raise it well beyond local core count in coordinator mode
	// so remote workers stay saturated.
	SweepFanout int
	// Store is the content-addressed result store every sweep cell
	// resolves against — the server's only result cache — and
	// GET /v1/specs/{hash}/result serves from. Nil selects a fresh,
	// unbounded in-memory store.
	Store store.Store
	// Dispatcher executes sweep cells the store cannot answer. Nil runs
	// them in-process; the cluster coordinator injects itself here.
	Dispatcher Dispatcher
	// RetryAfter is the back-off hint attached to 429 replies (header and
	// envelope details). Default 1s.
	RetryAfter time.Duration
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxSweepCells == 0 {
		c.MaxSweepCells = 10_000
	}
	if c.Store == nil {
		c.Store = store.NewMem()
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server owns the bounded sweep queue, the worker pool and the sweep
// table. Create with New, serve Handler() over HTTP, stop with Shutdown.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	cancel context.CancelFunc // cancels in-flight work on forced shutdown
	queue  chan *sweep
	store  store.Store
	wg     sync.WaitGroup

	mu         sync.Mutex
	sweeps     map[string]*sweep
	sweepOrder []string
	sweepSeq   int
	specs      map[string][]byte // canonical spec JSON by spec hash
	draining   bool

	mSweepSubmitted, mSweepCompleted      *telemetry.Counter
	mSweepFailed, mSweepCanceled          *telemetry.Counter
	mRejected, mStoreHits, mStoreMisses   *telemetry.Counter
	gQueueDepth, gInFlight, gStoreEntries *telemetry.Gauge
	hCellSeconds                          *telemetry.Histogram
	// shareStats counts what the in-process group runs share (warm.go).
	shareStats
}

// New builds a Server and starts its workers.
func New(cfg Config) *Server {
	cfg = cfg.normalize()
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		queue:  make(chan *sweep, cfg.QueueDepth),
		store:  cfg.Store,
		sweeps: map[string]*sweep{},
		specs:  map[string][]byte{},
		// The jobs_rejected and jobs_inflight series keep their
		// established names; both count sweeps.
		mRejected:       reg.Counter("bimodal_jobs_rejected_total"),
		mSweepSubmitted: reg.Counter("bimodal_sweeps_submitted_total"),
		mSweepCompleted: reg.Counter("bimodal_sweeps_completed_total"),
		mSweepFailed:    reg.Counter("bimodal_sweeps_failed_total"),
		mSweepCanceled:  reg.Counter("bimodal_sweeps_canceled_total"),
		mStoreHits:      reg.Counter("bimodal_sweep_store_hits_total"),
		mStoreMisses:    reg.Counter("bimodal_sweep_store_misses_total"),
		gQueueDepth:     reg.Gauge("bimodal_queue_depth"),
		gInFlight:       reg.Gauge("bimodal_jobs_inflight"),
		gStoreEntries:   reg.Gauge("bimodal_store_entries"),
		hCellSeconds:    reg.Histogram("bimodal_cell_seconds", telemetry.LatencyBuckets()...),
		shareStats: shareStats{
			mSnapHits:        reg.Counter("bimodal_snapshot_hits_total"),
			mSnapMisses:      reg.Counter("bimodal_snapshot_misses_total"),
			mStreamGenerated: reg.Counter("bimodal_stream_accesses_generated_total"),
			mStreamReplayed:  reg.Counter("bimodal_stream_accesses_replayed_total"),
		},
	}
	// The run context is handed to each worker rather than stored on the
	// Server: contexts are call-scoped (bmctxhygiene), and the only
	// holder that needs it is the worker call tree.
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
	return s
}

// Registry exposes the server's metrics registry (tests and embedders).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Store exposes the content-addressed result store (cluster wiring).
func (s *Server) Store() store.Store { return s.store }

// Shutdown drains the server: new submissions are rejected with 503,
// queued and running work is allowed to finish. If ctx expires first the
// remaining work is cancelled (it ends in state "canceled") and Shutdown
// still waits for the workers to exit before returning ctx's error. Safe
// to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// worker drains the queue until it is closed. ctx is the server's run
// context; its cancellation (forced shutdown) cancels in-flight work.
func (s *Server) worker(ctx context.Context) {
	defer s.wg.Done()
	for sw := range s.queue {
		s.gQueueDepth.Add(-1)
		s.runSweep(ctx, sw)
	}
}

// Handler returns the v1 HTTP API:
//
//	POST /v1/sweeps               submit a SweepRequest -> SweepStatus
//	GET  /v1/sweeps               list sweeps (?limit=&cursor=&state=)
//	GET  /v1/sweeps/{id}          one status, merged result when completed
//	GET  /v1/sweeps/{id}/events   SSE merged progress stream
//	GET  /v1/specs/{hash}         canonical spec echo (content-addressed)
//	GET  /v1/specs/{hash}/result  per-cell result bytes from the store
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 liveness probe
//
// Failures use the uniform error envelope
// {"error":{"code","message","details"}}; see errors.go for the codes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps", s.handleListSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("GET /v1/specs/{hash}", s.handleSpec)
	mux.HandleFunc("GET /v1/specs/{hash}/result", s.handleSpecResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	// Sweeps legitimately carry thousands of specs; 16 MB bounds the body
	// and MaxSweepCells the expansion.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "+err.Error(), nil)
		return
	}
	req, sweepHash, err := req.canonicalize()
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(), nil)
		return
	}
	cells, err := req.cells(s.cfg.MaxSweepCells)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(),
			map[string]any{"max_sweep_cells": s.cfg.MaxSweepCells})
		return
	}
	hashes := s.registerSpecs(cells)
	reqJSON, err := json.Marshal(req)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error(), nil)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		WriteError(w, http.StatusServiceUnavailable, CodeDraining, "draining, not accepting sweeps", nil)
		return
	}
	s.sweepSeq++
	sw := newSweep(fmt.Sprintf("sweep-%06d", s.sweepSeq), req, reqJSON, sweepHash, cells, hashes)
	select {
	case s.queue <- sw:
		s.sweeps[sw.id] = sw
		s.sweepOrder = append(s.sweepOrder, sw.id)
		s.mu.Unlock()
		s.mSweepSubmitted.Inc()
		s.gQueueDepth.Add(1)
		writeJSON(w, http.StatusOK, sw.status(false))
	default:
		s.sweepSeq--
		s.mu.Unlock()
		s.mRejected.Inc()
		writeQueueFull(w, s.cfg.QueueDepth, s.cfg.RetryAfter)
	}
}

// registerSpecs indexes each cell's canonical spec JSON under its content
// hash — the backing of GET /v1/specs/{hash} — and returns the hashes in
// cell order.
func (s *Server) registerSpecs(cells []cellSpec) []string {
	hashes := make([]string, len(cells))
	for i, cs := range cells {
		// Cells reaching here are canonical, so CanonicalJSON cannot fail;
		// a failure would mean a validation bug, and surfacing it as an
		// empty hash makes the spec endpoints miss rather than serve junk.
		cj, err := cs.rs.CanonicalJSON()
		if err != nil {
			continue
		}
		hashes[i] = spec.HashBytes(cj)
		s.mu.Lock()
		if _, ok := s.specs[hashes[i]]; !ok {
			s.specs[hashes[i]] = cj
		}
		s.mu.Unlock()
	}
	return hashes
}

// lookupSweep resolves {id} or replies 404 with the error envelope.
func (s *Server) lookupSweep(w http.ResponseWriter, r *http.Request) *sweep {
	s.mu.Lock()
	sw := s.sweeps[r.PathValue("id")]
	s.mu.Unlock()
	if sw == nil {
		WriteError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("unknown sweep %q", r.PathValue("id")), nil)
	}
	return sw
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	sw := s.lookupSweep(w, r)
	if sw == nil {
		return
	}
	st := sw.status(true)
	// A completed sweep's result bytes are immutable and fully identified
	// by the sweep hash, so the hash doubles as a strong ETag: clients that
	// cached the result revalidate for free.
	if st.State == StateCompleted && st.SweepHash != "" {
		if revalidated(w, r, st.SweepHash) {
			return
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSpec echoes the canonical spec JSON registered under {hash} —
// the content-addressed name every sweep cell is indexed by.
func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	s.mu.Lock()
	cj := s.specs[hash]
	s.mu.Unlock()
	if cj == nil {
		WriteError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("unknown spec %q", hash), nil)
		return
	}
	if revalidated(w, r, hash) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(cj)
}

// handleSpecResult serves one cell's result bytes straight from the
// content-addressed store: 200 with a strong ETag when present, 404
// envelope when no sweep stored a result under the hash.
func (s *Server) handleSpecResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	blob, ok, err := s.store.Get(hash)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(), nil)
		return
	}
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no stored result for spec %q", hash), nil)
		return
	}
	if revalidated(w, r, hash) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

// revalidated sets the strong ETag for hash and answers 304 when the
// request's If-None-Match already holds it.
func revalidated(w http.ResponseWriter, r *http.Request, hash string) bool {
	etag := `"` + hash + `"`
	w.Header().Set("ETag", etag)
	if matchesETag(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// matchesETag implements the If-None-Match comparison: a comma-separated
// list of entity tags (weak validators compare equal ignoring the W/
// prefix) or the wildcard "*".
func matchesETag(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		if part != "" && (part == "*" || part == etag) {
			return true
		}
	}
	return false
}

// pageQuery is the parsed ?limit=&cursor=&state= listing parameters.
type pageQuery struct {
	limit  int
	cursor string
	state  State
}

// parsePageQuery validates the listing parameters. Limit defaults to 100
// and caps at 1000 so a cluster-scale sweep table cannot be dumped in one
// reply; state must name a known lifecycle state when present.
func parsePageQuery(r *http.Request) (pageQuery, *APIError) {
	q := pageQuery{limit: 100, cursor: r.URL.Query().Get("cursor")}
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return q, &APIError{Status: http.StatusBadRequest, Code: CodeInvalidRequest,
				Message: fmt.Sprintf("limit %q must be a positive integer", raw)}
		}
		if n > 1000 {
			n = 1000
		}
		q.limit = n
	}
	if raw := r.URL.Query().Get("state"); raw != "" {
		switch st := State(raw); st {
		case StateQueued, StateRunning, StateCompleted, StateFailed, StateCanceled:
			q.state = st
		default:
			return q, &APIError{Status: http.StatusBadRequest, Code: CodeInvalidRequest,
				Message: fmt.Sprintf("unknown state %q", raw)}
		}
	}
	return q, nil
}

// page walks ids (append-only submission order) starting after the
// cursor, keeps entries the filter accepts, and returns the page plus the
// cursor for the next one ("" when exhausted). The cursor anchors on the
// full ordering, not the filtered view, so an entry changing state
// between pages can never invalidate a cursor.
func page(ids []string, q pageQuery, keep func(id string) bool) (out []string, next string, err *APIError) {
	start := 0
	if q.cursor != "" {
		i := -1
		for j, id := range ids {
			if id == q.cursor {
				i = j
				break
			}
		}
		if i < 0 {
			return nil, "", &APIError{Status: http.StatusBadRequest, Code: CodeInvalidRequest,
				Message: fmt.Sprintf("unknown cursor %q", q.cursor)}
		}
		start = i + 1
	}
	for _, id := range ids[start:] {
		if !keep(id) {
			continue
		}
		if len(out) == q.limit {
			next = out[len(out)-1]
			return out, next, nil
		}
		out = append(out, id)
	}
	return out, "", nil
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	q, aerr := parsePageQuery(r)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, aerr.Message, aerr.Details)
		return
	}
	s.mu.Lock()
	ids := append([]string(nil), s.sweepOrder...)
	sweeps := make(map[string]*sweep, len(s.sweeps))
	for id, sw := range s.sweeps {
		sweeps[id] = sw
	}
	s.mu.Unlock()
	pageIDs, next, aerr := page(ids, q, func(id string) bool {
		return q.state == "" || sweeps[id].status(false).State == q.state
	})
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, aerr.Message, aerr.Details)
		return
	}
	out := SweepList{Sweeps: make([]SweepStatus, len(pageIDs)), NextCursor: next}
	for i, id := range pageIDs {
		out.Sweeps[i] = sweeps[id].status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw := s.lookupSweep(w, r)
	if sw == nil {
		return
	}
	streamEvents(w, r, sw)
}

// streamEvents replays the sweep's full event history, then tails live
// events until the stream is over or the client goes away.
func streamEvents(w http.ResponseWriter, r *http.Request, sw *sweep) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported", nil)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for i := 0; ; {
		evs, update, over := sw.eventsSince(i)
		for _, e := range evs {
			b, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
		}
		i += len(evs)
		if len(evs) > 0 {
			fl.Flush()
		}
		if over {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-update:
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
	// Process-wide metrics (engine throughput histograms) live in the
	// default registry; metric names are disjoint from the server's own.
	telemetry.Default.WritePrometheus(w)
}
