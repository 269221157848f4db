package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"vc2m/internal/obs"
)

// Config parameterizes the service. Zero values take sensible defaults.
type Config struct {
	// Workers bounds concurrent allocations (default 2). A burst of
	// submissions queues instead of spawning unbounded goroutines.
	Workers int
	// Queue bounds pending submissions (default 64); a full queue
	// rejects new runs with 503 instead of growing without limit.
	Queue int
	// RunTimeout bounds one run's execution; zero means no bound. The
	// deadline cancels the run's context, which the allocator polls.
	RunTimeout time.Duration
	// RequestTimeout bounds non-streaming HTTP requests (default 30s).
	RequestTimeout time.Duration
	// WaitTimeout caps a blocking GET /v1/runs/{id}?wait=1 (default 5m).
	WaitTimeout time.Duration
	// Logger receives the server's structured log stream (run lifecycle,
	// access lines, panics). Nil disables logging at no cost.
	Logger *obs.Logger
	// SlowRun, when positive, emits a warn-level per-stage wall-clock
	// breakdown for any run whose execution exceeded it.
	SlowRun time.Duration
	// DebugRoutes additionally serves GET /debug/panic (a handler that
	// panics on purpose) so deployments and tests can verify the recovery
	// middleware end to end. Leave off in production.
	DebugRoutes bool
	// EventBuffer bounds each SSE subscriber's delivery buffer (default
	// 64). A subscriber that falls further behind than this loses events
	// (counted in vc2m_events_dropped_total) — publishing never blocks a
	// worker. Tests shrink it to force drops.
	EventBuffer int
	// EventHistory bounds the replay ring serving Last-Event-ID reconnects
	// (default 512 events).
	EventHistory int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 5 * time.Minute
	}
	return c
}

// ErrDraining is returned by Submit once shutdown has begun.
var ErrDraining = errors.New("server: draining, not accepting new runs")

// ErrQueueFull is returned by Submit when the bounded queue is full.
var ErrQueueFull = errors.New("server: run queue full")

// Server is the allocation service: registry + bounded worker pool +
// HTTP handler. Create with New, start the pool with Start, expose
// Handler over any net/http server, and drain with Shutdown.
type Server struct {
	cfg Config
	reg *Registry

	queue chan *Run
	wg    sync.WaitGroup

	// events fans run-lifecycle events out to SSE subscribers; stop is
	// closed once the drain completes (no further events will ever be
	// published), ending every open event stream so the HTTP server's own
	// shutdown is never blocked by an idle subscriber.
	events   *eventBus
	stop     chan struct{}
	stopOnce sync.Once

	mu sync.Mutex
	//vc2m:guardedby mu
	draining bool
	//vc2m:guardedby mu
	started bool

	// Observability: the Prometheus registry and log stream live strictly
	// outside the report documents — scraping or logging never changes a
	// run's bytes (guarded by TestReportByteIdentityWithObservability and
	// the server golden tests).
	om       *serverObs
	log      *obs.Logger
	inFlight atomic.Int64
	start    time.Time

	handler http.Handler
}

// New builds a server. Call Start before submitting.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		reg:   NewRegistry(),
		queue: make(chan *Run, cfg.withDefaults().Queue),
		log:   cfg.Logger,
		stop:  make(chan struct{}),
		start: time.Now(), //vc2m:wallclock uptime reference
	}
	s.events = newEventBus(s.cfg.EventHistory, s.cfg.EventBuffer)
	s.om = newServerObs(s)
	s.reg.SetDecisionCounter(s.om.decisions)
	s.reg.SetEventBus(s.events)
	s.handler = s.buildHandler()
	return s
}

// Registry exposes the run registry (read-mostly; tests and the daemon's
// inventory seeding use it).
func (s *Server) Registry() *Registry { return s.reg }

// Start launches the worker pool. Workers execute runs until Shutdown
// closes the queue, then drain what remains and exit.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for run := range s.queue {
				// The run timeout is armed at pickup, not at submission,
				// so queue time does not count against the execution
				// budget.
				ctx := run.execCtx
				cancelTimeout := func() {}
				if s.cfg.RunTimeout > 0 {
					ctx, cancelTimeout = context.WithTimeout(ctx, s.cfg.RunTimeout)
				}
				s.inFlight.Add(1)
				s.execute(ctx, run)
				s.inFlight.Add(-1)
				cancelTimeout()
				run.cancel()
			}
		}()
	}
}

// Submit validates, registers and enqueues a run. It returns ErrDraining
// after Shutdown begins and ErrQueueFull when the bounded queue cannot
// take more. A fresh trace is minted for the run; HTTP submissions go
// through SubmitCtx, which propagates the caller's traceparent instead.
func (s *Server) Submit(req SubmitRequest) (*Run, error) {
	return s.submit(req, obs.TraceContext{}, "")
}

// SubmitCtx is Submit with trace correlation: the run adopts the W3C
// trace context and request ID carried by ctx (planted by the HTTP
// middleware), so client traces thread through to server spans, lifecycle
// events and metric exemplars. Absent values are minted.
func (s *Server) SubmitCtx(ctx context.Context, req SubmitRequest) (*Run, error) {
	tc, _ := obs.TraceContextFromContext(ctx)
	return s.submit(req, tc, obs.RequestIDFromContext(ctx))
}

func (s *Server) submit(req SubmitRequest, tc obs.TraceContext, reqID string) (*Run, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Submit is the queue's only sender and holds s.mu, so a free slot
	// observed here cannot vanish before the send below — which lets the
	// queued event go out BEFORE the run is handed to a worker, keeping
	// the lifecycle stream ordered queued < started.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	// The run's lifetime is deliberately detached from the submitting
	// request: execution continues after the HTTP response is written.
	execCtx, cancel := context.WithCancel(context.Background()) //vc2m:bgctx run execution outlives the submitting request by design
	run := s.reg.Add(req, execCtx, cancel, tc, reqID)
	s.events.publish(RunEvent{
		Type: EventQueued, Run: run.ID(), Kind: run.kind,
		State: StatePending, TraceID: run.traceCtx.TraceID,
	})
	s.queue <- run
	s.mu.Unlock()
	return run, nil
}

// Shutdown drains the service: no new submissions are accepted, queued
// and in-flight runs execute to completion, and the call returns once
// every worker has exited. If ctx expires first, all remaining runs are
// canceled and the call waits for the workers to observe it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	started := s.started
	close(s.queue)
	s.mu.Unlock()
	if !started {
		s.stopOnce.Do(func() { close(s.stop) })
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopOnce.Do(func() { close(s.stop) })
		return nil
	case <-ctx.Done():
		// Hard stop: cancel everything still alive and wait for the
		// workers to notice (the allocator polls its context).
		for _, run := range s.reg.Runs() {
			run.cancel()
		}
		<-done
		s.stopOnce.Do(func() { close(s.stop) })
		return ctx.Err()
	}
}

// Handler returns the HTTP API:
//
//	GET  /healthz                  liveness + build identity + uptime
//	GET  /metrics                  Prometheus text exposition
//	GET  /api/metrics              registry/pool gauges (JSON)
//	POST /v1/runs                  submit a run, sweep or churn
//	GET  /v1/runs                  list runs
//	GET  /v1/runs/{id}[?wait=1]    run status (wait=1 blocks until done)
//	GET  /v1/runs/{id}/report      the vc2m.report/v1 document
//	GET  /v1/runs/{id}/provenance  live decision stream (JSONL, chunked)
//	GET  /v1/runs/{id}/events      the run's lifecycle events (SSE; ends at terminal)
//	POST /v1/runs/{id}/cancel      cancel a pending/running run
//	POST /v1/runs/{id}/churn       queue an incremental churn run on {id}
//	GET  /v1/events                fleet-wide run-lifecycle stream (SSE)
//	GET  /dashboard                self-contained live HTML dashboard
//	GET  /debug/pprof/...          runtime profiles (CPU, heap, goroutine)
//
// Every route passes through the observability middleware: request-ID
// minting/propagation (X-Request-Id), panic recovery, access logging and
// per-endpoint latency metrics.
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) buildHandler() http.Handler {
	// Bounded-work endpoints sit behind the per-request timeout; the
	// blocking endpoints (wait-polling, provenance streaming) and the
	// pprof profile endpoints (a 30s CPU profile is the point) manage
	// their own deadlines because http.TimeoutHandler buffers bodies,
	// which would break chunked streaming.
	bounded := http.NewServeMux()
	bounded.HandleFunc("GET /healthz", s.handleHealth)
	bounded.Handle("GET /metrics", s.om.reg.Handler())
	bounded.HandleFunc("GET /api/metrics", s.handleMetricsJSON)
	bounded.HandleFunc("GET /dashboard", s.handleDashboard)
	bounded.HandleFunc("POST /v1/runs", s.handleSubmit)
	bounded.HandleFunc("GET /v1/runs", s.handleList)
	bounded.HandleFunc("GET /v1/runs/{id}/report", s.handleReport)
	bounded.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancel)
	bounded.HandleFunc("POST /v1/runs/{id}/churn", s.handleChurn)
	if s.cfg.DebugRoutes {
		bounded.HandleFunc("GET /debug/panic", func(http.ResponseWriter, *http.Request) {
			panic("debug panic route")
		})
	}

	root := http.NewServeMux()
	root.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	root.HandleFunc("GET /v1/runs/{id}/provenance", s.handleProvenance)
	root.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	root.HandleFunc("GET /v1/events", s.handleEvents)
	root.HandleFunc("GET /debug/pprof/", pprof.Index)
	root.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	root.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	root.Handle("/", http.TimeoutHandler(bounded, s.cfg.RequestTimeout, `{"error":"request timed out"}`))
	return obs.Middleware(root, s.log, s.om.httpm, routeLabel)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, HealthStatus{
		Status:        status,
		Build:         obs.GetBuildInfo(),
		UptimeSeconds: time.Since(s.start).Seconds(), //vc2m:wallclock uptime is wall time by definition
		Draining:      draining,
	})
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	total, byState := s.reg.Count()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	published, dropped, subs := s.events.stats()
	writeJSON(w, http.StatusOK, ServiceMetrics{
		Submitted:        total,
		ByState:          byState,
		Workers:          s.cfg.Workers,
		QueueCap:         s.cfg.Queue,
		QueueLen:         len(s.queue),
		Draining:         draining,
		EventsPublished:  published,
		EventsDropped:    dropped,
		EventSubscribers: subs,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding submission: %w", err))
		return
	}
	run, err := s.SubmitCtx(r.Context(), req)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: run.ID(), State: StatePending})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Statuses())
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	run, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: no run %q", r.PathValue("id")))
	}
	return run, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("wait") != "" {
		wait := time.NewTimer(s.cfg.WaitTimeout)
		defer wait.Stop()
		select {
		case <-run.Done():
		case <-r.Context().Done():
			return
		case <-wait.C:
		}
	}
	writeJSON(w, http.StatusOK, run.Status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	data, ready := run.ReportJSON()
	if !ready {
		st := run.Status()
		writeError(w, http.StatusConflict,
			fmt.Errorf("server: run %s is %s, no report yet", st.ID, st.State))
		return
	}
	// Serve the marshaled document verbatim: byte-identical to
	// report.Save of the same in-process run.
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleChurn queues an incremental churn run against the base run in the
// URL. The body is a SubmitRequest whose churn.base_run the URL fills in
// (kind likewise), so existing decode/validate/submit machinery applies
// unchanged. The base must exist up front; it need not be done yet — the
// churn run waits on it, so a client can pipeline base + churn submits.
func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	base, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding churn submission: %w", err))
		return
	}
	req.Kind = KindChurn
	if req.Churn == nil {
		req.Churn = &ChurnSpec{}
	}
	req.Churn.BaseRun = base.ID()
	run, err := s.SubmitCtx(r.Context(), req)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: run.ID(), State: StatePending})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	run.Cancel()
	writeJSON(w, http.StatusOK, run.Status())
}

// handleProvenance streams the run's decision log as JSON lines over a
// chunked response, following the live stream until the run finishes or
// the client disconnects — `curl .../provenance` tails an allocation.
func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		// Grab the wakeup channel before draining, so a decision landing
		// in between still wakes us.
		wake := run.pub.wait()
		for _, d := range run.prov.DecisionsFrom(next) {
			if err := enc.Encode(d); err != nil {
				return
			}
			next++
		}
		if canFlush {
			flusher.Flush()
		}
		select {
		case <-run.Done():
			// Final drain: decisions recorded between the loop above and
			// the run finishing.
			for _, d := range run.prov.DecisionsFrom(next) {
				if err := enc.Encode(d); err != nil {
					return
				}
				next++
			}
			return
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
