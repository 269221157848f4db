package server

import (
	"context"
	"fmt"
	"time"

	"vc2m"
	"vc2m/internal/alloc"
	"vc2m/internal/experiment"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// execute runs one registry entry to its terminal state. A KindRun goes
// through ExecuteRun, the recipe vc2m-sim also runs in-process, so a
// server run's document is byte-identical to the same spec executed by
// vc2m-sim with the same seeds; a sweep makes the same
// experiment.RunSchedulability call as vc2m-paper. Every run executes
// under a wall-clock span trace whose stage durations feed the
// vc2m_stage_latency_seconds histograms and the slow-run log; spans live
// strictly outside the report, so the identity holds with them on.
func (s *Server) execute(ctx context.Context, run *Run) {
	if ctx.Err() != nil || !run.setRunning() {
		s.finishRun(run, StateCanceled, nil, nil, "canceled before execution")
		s.om.runFinished(s.log, run, nil, 0, s.cfg.SlowRun)
		return
	}
	// The run executes under the trace context it was submitted with
	// (client-propagated traceparent or minted at registration), so server
	// spans — and the latency exemplars fed from them — join the
	// submitting client's trace.
	tc := run.TraceContext()
	s.log.Info("run started", "run", run.ID(), "kind", run.kind, "trace", tc.TraceID)
	tr := obs.NewTraceWith(tc)
	root := tr.StartSpan(obs.StageRun)
	root.SetAttr("run", run.ID())
	if run.reqID != "" {
		root.SetAttr("req", run.reqID)
	}
	s.events.publish(RunEvent{
		Type: EventStarted, Run: run.ID(), Kind: run.kind,
		State: StateRunning, TraceID: tc.TraceID,
	})
	begin := time.Now() //vc2m:wallclock run latency feeds the slow-run log
	var doc *report.Document
	var finalAlloc *model.Allocation
	var err error
	switch run.kind {
	case KindSweep:
		doc, err = executeSweep(ctx, run.req, run.prov, root)
	case KindChurn:
		doc, finalAlloc, err = s.executeChurn(ctx, run, root)
	default:
		var res *RunResult
		if res, err = ExecuteRun(ctx, run.req, run.prov, root); err == nil {
			doc, finalAlloc = res.Doc, res.Allocation
		}
	}
	root.End()
	elapsed := time.Since(begin) //vc2m:wallclock run latency feeds the slow-run log
	switch {
	case err != nil && ctx.Err() != nil:
		s.finishRun(run, StateCanceled, nil, nil, err.Error())
	case err != nil:
		s.finishRun(run, StateFailed, nil, nil, err.Error())
	default:
		data, merr := report.Marshal(doc)
		if merr != nil {
			s.finishRun(run, StateFailed, nil, nil, merr.Error())
			s.om.runFinished(s.log, run, tr, elapsed, s.cfg.SlowRun)
			return
		}
		// Store the accepted allocation before finish, so anyone woken by
		// Done() — a churn run waiting on this base, in particular —
		// observes it.
		run.setAllocation(finalAlloc)
		s.finishRun(run, StateDone, doc, data, "")
	}
	s.om.runFinished(s.log, run, tr, elapsed, s.cfg.SlowRun)
}

// finishRun records the run's terminal state, publishes its terminal
// lifecycle event and only then closes Done(). The order is deliberate: a
// client re-reading the status on the terminal event finds it terminal,
// and the event is in the bus ring, on every subscriber channel and
// retained on the run before Done() closes, so an observer woken by Done()
// can always replay it.
func (s *Server) finishRun(run *Run, state State, doc *report.Document, docJSON []byte, errMsg string) {
	run.setResult(state, doc, docJSON, errMsg)
	ev := RunEvent{
		Type: EventFinished, Run: run.ID(), Kind: run.kind, State: state,
		TraceID: run.TraceContext().TraceID, Error: errMsg, Decisions: run.prov.Len(),
	}
	if doc != nil && doc.Rejection != nil {
		// A rejected allocation is done, not failed — but it gets its own
		// event type so dashboards can track admit/reject rates directly.
		ev.Type = EventRejected
	}
	run.finish(s.events.publish(ev))
}

// RunResult is what ExecuteRun built: the report document plus the
// values behind it, for callers that print more than the document.
type RunResult struct {
	// Doc is the KindRun report document.
	Doc *report.Document
	// Allocation is the accepted allocation; nil when rejected.
	Allocation *model.Allocation
	// Sim is the simulation result, its event stream recorded; nil when
	// rejected or not simulated.
	Sim *vc2m.SimResult
	// Metrics is the recorder the run fed; nil unless req.Metrics.
	Metrics *vc2m.MetricsRecorder
}

// ExecuteRun is the KindRun recipe: build the system, allocate it,
// optionally simulate it, and assemble the report. The worker pool runs
// it for every KindRun, and vc2m-sim runs it in-process, so both produce
// the same document for the same request. A rejected allocation is a
// result, not an error: Doc carries the rejection and Allocation is nil.
// prov and sp may be nil.
func ExecuteRun(ctx context.Context, req SubmitRequest, prov *provenance.Recorder, sp *obs.Span) (*RunResult, error) {
	sys, err := BuildSystem(req)
	if err != nil {
		return nil, err
	}
	mode, modeName, err := ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	out := &RunResult{}
	if req.Metrics {
		out.Metrics = vc2m.NewMetrics()
	}
	title := req.Title
	if title == "" {
		title = fmt.Sprintf("vc2m-server %s run (seed %d)", modeName, req.GenSeed)
	}
	in := report.RunInput{
		Title:      title,
		Seed:       req.GenSeed,
		Mode:       modeName,
		Platform:   sys.Platform,
		Metrics:    out.Metrics,
		Provenance: prov,
	}
	a, aerr := vc2m.Allocate(sys, vc2m.Options{
		Mode: mode, Seed: req.Seed, Metrics: out.Metrics, Provenance: prov, Context: ctx, Span: sp,
	})
	if aerr != nil {
		if ctx.Err() != nil {
			return nil, aerr
		}
		// The rejection is itself a result: the report carries the
		// decision trail with the binding resource(s).
		in.Rejection = toRejection(aerr)
		out.Doc = report.BuildRun(in)
		return out, nil
	}
	in.Allocation, out.Allocation = a, a
	if req.SimulateMs > 0 {
		res, serr := vc2m.Simulate(a, req.SimulateMs, vc2m.SimOptions{
			RecordTrace: true, Metrics: out.Metrics, Span: sp,
		})
		if serr != nil {
			return nil, serr
		}
		in.Sim, out.Sim = res, res
		if res.Missed > 0 {
			in.Diagnosis = vc2m.DiagnoseMisses(res.Events)
		}
	}
	out.Doc = report.BuildRun(in)
	return out, nil
}

// executeChurn is the KindChurn path: wait for the base run's allocation,
// apply the churn events in order through the incremental warm-start
// allocator (event i with seed Seed+i), and report the final layout. The
// report is built exactly like a KindRun document of the final
// allocation, so the byte-identity contract extends to churn: the served
// document equals an in-process vc2m.Incremental replay of the same base
// and events with the same seeds.
func (s *Server) executeChurn(ctx context.Context, run *Run, sp *obs.Span) (*report.Document, *model.Allocation, error) {
	req := run.req
	spec := req.Churn
	base, ok := s.reg.Get(spec.BaseRun)
	if !ok {
		return nil, nil, fmt.Errorf("server: churn base run %q not found", spec.BaseRun)
	}
	select {
	case <-base.Done():
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	prev := base.Allocation()
	if prev == nil {
		return nil, nil, fmt.Errorf("server: churn base run %s is %s with no accepted allocation",
			base.ID(), base.Status().State)
	}
	mode, modeName, err := ParseMode(req.Mode)
	if err != nil {
		return nil, nil, err
	}
	var rec *vc2m.MetricsRecorder
	if req.Metrics {
		rec = vc2m.NewMetrics()
	}
	cur := prev
	for i, ev := range spec.Events {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		res, err := vc2m.Incremental(cur, vc2m.ChurnDelta{Arrivals: ev.Arrivals, Departures: ev.Departures},
			vc2m.Options{Mode: mode, Seed: req.Seed + int64(i), Metrics: rec,
				Provenance: run.prov, Context: ctx, Span: sp})
		if err != nil {
			return nil, nil, fmt.Errorf("server: churn event %d: %w", i, err)
		}
		cur = res.Allocation
		s.events.publish(RunEvent{
			Type: EventChurn, Run: run.ID(), Kind: run.kind, State: StateRunning,
			TraceID:    run.TraceContext().TraceID,
			ChurnEvent: i + 1,
			Admitted:   len(res.Admitted),
			Rejected:   len(res.Rejected),
			Departed:   len(res.Departed),
			Migrated:   len(res.Migrated),
		})
	}
	title := req.Title
	if title == "" {
		title = fmt.Sprintf("vc2m-server churn run (base %s, seed %d)", base.ID(), req.Seed)
	}
	doc := report.BuildRun(report.RunInput{
		Title:      title,
		Seed:       req.Seed,
		Mode:       modeName,
		Platform:   cur.Platform,
		Allocation: cur,
		Metrics:    rec,
		Provenance: run.prov,
	})
	return doc, cur, nil
}

// BuildSystem materializes a run's taskset: the request's system
// verbatim, or a workload generated from its spec with the request's
// generation seed. ExecuteRun starts here; vc2m-sim -dump-system stops
// here.
func BuildSystem(req SubmitRequest) (*model.System, error) {
	if req.System != nil {
		if err := req.System.Validate(); err != nil {
			return nil, err
		}
		return req.System, nil
	}
	if req.Generate == nil {
		return nil, fmt.Errorf("server: run has neither system nor generate spec")
	}
	return workload.Generate(*req.Generate, rngutil.New(req.GenSeed))
}

// executeSweep is the KindSweep path: a schedulability sweep whose curves
// land in a KindSweep document, decision-per-case provenance included.
func executeSweep(ctx context.Context, req SubmitRequest, prov *provenance.Recorder, sp *obs.Span) (*report.Document, error) {
	cfg, err := req.Sweep.schedConfig(req.Seed)
	if err != nil {
		return nil, err
	}
	_, modeName, err := ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	cfg.Provenance, cfg.Context, cfg.Span = prov, ctx, sp
	res, err := experiment.RunSchedulability(cfg)
	if err != nil {
		return nil, err
	}
	title := req.Title
	if title == "" {
		title = fmt.Sprintf("vc2m-server sweep %s/%s (seed %d)", cfg.Platform.Name, cfg.Dist, req.Seed)
	}
	return report.BuildSweep(report.SweepInput{
		Title:      title,
		Seed:       req.Seed,
		Mode:       modeName,
		Platform:   cfg.Platform,
		Sweep:      res.ReportSweep(),
		Provenance: prov,
	}), nil
}

// toRejection translates an allocator error into the report's rejection
// section, preserving the binding resource(s) of a RejectionError
// (package report deliberately does not import alloc).
func toRejection(err error) *report.Rejection {
	rej := &report.Rejection{Reason: err.Error(), Violated: []string{"cpu"}}
	if re, ok := alloc.AsRejection(err); ok {
		rej.Stage = re.Stage
		rej.Violated = rej.Violated[:0]
		for _, r := range re.Violated {
			rej.Violated = append(rej.Violated, string(r))
		}
	}
	return rej
}
