package server

import (
	"context"
	"fmt"
	"sync"

	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
)

// State is a run's lifecycle position.
type State string

const (
	// StatePending: accepted and queued, no worker has picked it up.
	StatePending State = "pending"
	// StateRunning: a worker is executing the allocation.
	StateRunning State = "running"
	// StateDone: the report document is available. Rejected allocations
	// are done, not failed — a rejection is a result with a decision
	// trail, exactly like the batch CLIs treat it.
	StateDone State = "done"
	// StateFailed: the run could not produce a report (bad generation
	// spec, simulator error).
	StateFailed State = "failed"
	// StateCanceled: the run's context was canceled (explicit cancel,
	// run timeout, or hard shutdown) before it completed.
	StateCanceled State = "canceled"
)

// Run is one registry entry: the submission, its lifecycle state, and —
// once done — the marshaled report document. The provenance recorder is
// live from the moment the run is created, so the status endpoint's
// decision count and the stage events follow execution as it happens.
type Run struct {
	id   string
	kind string
	req  SubmitRequest

	// traceCtx is the run's W3C trace context: the submitting client's
	// (propagated via traceparent) or one minted at registration. reqID is
	// the submitting HTTP request's ID ("" for direct Submit calls). Both
	// are immutable once the run is visible.
	traceCtx obs.TraceContext
	reqID    string

	prov *provenance.Recorder

	// execCtx is the context workers execute the run under; cancel
	// aborts it (explicit cancel endpoint or hard shutdown). Both are
	// armed by Registry.Add, so they are never nil on a visible run.
	//vc2m:ctxfield run execution deliberately outlives the submitting HTTP request
	execCtx context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu sync.Mutex
	//vc2m:guardedby mu
	state State
	//vc2m:guardedby mu
	errMsg string
	//vc2m:guardedby mu
	doc *report.Document
	//vc2m:guardedby mu
	docJSON []byte
	// alloc is the accepted final allocation of a done run (KindRun and
	// KindChurn); nil on sweeps, rejections and failures. Churn runs read
	// their base run's allocation through it.
	//vc2m:guardedby mu
	alloc *model.Allocation
	// terminalEv is the run's published terminal lifecycle event, retained
	// so a late SSE subscriber can replay it after the bus ring evicted it.
	// finish stores it before closing done, so Done() observers always
	// find it.
	//vc2m:guardedby mu
	terminalEv *RunEvent
}

// ID returns the registry key.
func (r *Run) ID() string { return r.id }

// TraceContext returns the run's W3C trace context — always valid on a
// registered run (minted at Add when the submitter carried none).
func (r *Run) TraceContext() obs.TraceContext { return r.traceCtx }

// TerminalEvent returns the retained terminal lifecycle event, or nil
// while the run has not finished.
func (r *Run) TerminalEvent() *RunEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.terminalEv
}

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Cancel aborts the run: pending runs are discarded when a worker picks
// them up; running allocations observe the canceled context at their next
// poll point.
func (r *Run) Cancel() { r.cancel() }

// Status snapshots the run for the wire.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID:        r.id,
		Kind:      r.kind,
		State:     r.state,
		Title:     r.req.Title,
		Error:     r.errMsg,
		Decisions: r.prov.Len(),
		TraceID:   r.traceCtx.TraceID,
	}
	if r.doc != nil {
		st.Title = r.doc.Title
		if r.doc.Kind == report.KindRun {
			sched := r.doc.Rejection == nil
			st.Schedulable = &sched
		}
	}
	return st
}

// Allocation returns the run's accepted final allocation, or nil while
// the run is unfinished or when it produced none (sweep, rejection,
// failure). Callers must treat the value as immutable — the incremental
// allocator copies before it mutates, so sharing is safe.
func (r *Run) Allocation() *model.Allocation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alloc
}

// setAllocation stores the accepted final allocation; call it before
// finish so Done() observers see it.
func (r *Run) setAllocation(a *model.Allocation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.alloc = a
}

// ReportJSON returns the marshaled report document, or false while the
// run has not produced one.
func (r *Run) ReportJSON() ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.docJSON, r.docJSON != nil
}

// setRunning transitions pending → running; it reports false when the
// run was already terminal (canceled before pickup).
func (r *Run) setRunning() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StatePending {
		return false
	}
	r.state = StateRunning
	return true
}

// setResult records the terminal state and the report. Call it before the
// terminal event is published, so a client that re-reads the status on
// that event finds it terminal.
func (r *Run) setResult(state State, doc *report.Document, docJSON []byte, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = state
	r.doc = doc
	r.docJSON = docJSON
	r.errMsg = errMsg
}

// finish retains the published terminal event and wakes every Done()
// waiter, which can therefore always replay the event.
func (r *Run) finish(ev RunEvent) {
	r.mu.Lock()
	r.terminalEv = &ev
	r.mu.Unlock()
	close(r.done)
}

// Registry tracks every accepted run, keyed by a counter-based ID —
// deterministic, like every identifier this repository mints, so two
// identically-scripted sessions produce identical registries.
type Registry struct {
	mu sync.Mutex
	//vc2m:guardedby mu
	next int
	//vc2m:guardedby mu
	runs map[string]*Run
	//vc2m:guardedby mu
	order []string

	// decisions, when non-nil, counts every recorded provenance decision
	// by stage and kind (vc2m_decisions_total). Set once via
	// SetDecisionCounter before any Add; the counter is chained ahead of
	// the stage sink.
	//vc2m:guardedby mu
	decisions *obs.Counter
	// events, when non-nil, receives stage-entered lifecycle events derived
	// from the provenance sink chain. Set once via SetEventBus before any
	// Add, like the decision counter.
	//vc2m:guardedby mu
	events *eventBus
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{runs: make(map[string]*Run)}
}

// SetDecisionCounter installs the decision counter. Call it once, before
// any Add — later runs would otherwise race the sink chain construction.
func (g *Registry) SetDecisionCounter(c *obs.Counter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.decisions = c
}

// SetEventBus installs the lifecycle event bus the stage sink publishes
// to. Call it once, before any Add, like SetDecisionCounter.
func (g *Registry) SetEventBus(b *eventBus) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.events = b
}

// Add registers a new pending run for the request and returns it. The
// execution context and its cancel func are part of the run from the
// moment it becomes visible, so a concurrent cancel endpoint can never
// observe a half-armed run. tc is the submitter's W3C trace context — a
// fresh trace is minted when it is invalid, so every run has a trace ID
// from the moment it exists; reqID is the submitting HTTP request's ID
// ("" for direct Submit calls).
func (g *Registry) Add(req SubmitRequest, execCtx context.Context, cancel context.CancelFunc, tc obs.TraceContext, reqID string) *Run {
	kind := req.Kind
	if kind == "" {
		kind = KindRun
	}
	if !tc.Valid() {
		tc = obs.NewTraceContext()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next++
	id := fmt.Sprintf("r%04d", g.next)
	var sink provenance.Sink
	if g.events != nil {
		sink = &stageSink{bus: g.events, run: id, kind: kind, traceID: tc.TraceID, seen: make(map[string]bool)}
	}
	if g.decisions != nil {
		sink = &countingSink{c: g.decisions, next: sink}
	}
	r := &Run{
		id:       id,
		kind:     kind,
		req:      req,
		traceCtx: tc,
		reqID:    reqID,
		prov:     provenance.NewStreaming(sink),
		execCtx:  execCtx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    StatePending,
	}
	g.runs[r.id] = r
	g.order = append(g.order, r.id)
	return r
}

// Remove deletes a run that never made it into the queue (enqueue
// failure), so the registry only lists runs that will execute.
func (g *Registry) Remove(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.runs, id)
	for i, v := range g.order {
		if v == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
}

// Get looks a run up by ID.
func (g *Registry) Get(id string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	return r, ok
}

// Runs returns every registered run in submission order.
func (g *Registry) Runs() []*Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Run, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.runs[id])
	}
	return out
}

// Statuses returns every run's wire status in submission order.
func (g *Registry) Statuses() []RunStatus {
	runs := g.Runs()
	out := make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i] = r.Status()
	}
	return out
}

// Count tallies runs by state.
func (g *Registry) Count() (total int, byState map[State]int) {
	runs := g.Runs()
	byState = make(map[State]int)
	for _, r := range runs {
		byState[r.Status().State]++
	}
	return len(runs), byState
}
