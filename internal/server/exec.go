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

// execute runs one registry entry to its terminal state. It mirrors the
// batch drivers exactly — same facade calls, same report construction —
// so a server run's document is byte-identical to the same spec executed
// by vc2m-sim with the same seeds, and a sweep makes the same
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
		doc, finalAlloc, err = executeRun(ctx, run.req, run.prov, root)
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

// finishRun publishes the run's terminal lifecycle event and then records
// the terminal state. Publish-before-finish is deliberate: the event is in
// the bus ring, on every subscriber channel and retained on the run before
// Done() closes, so an observer woken by Done() can always replay it.
func (s *Server) finishRun(run *Run, state State, doc *report.Document, docJSON []byte, errMsg string) {
	ev := RunEvent{
		Type: EventFinished, Run: run.ID(), Kind: run.kind, State: state,
		TraceID: run.TraceContext().TraceID, Error: errMsg, Decisions: run.prov.Len(),
	}
	if doc != nil && doc.Rejection != nil {
		// A rejected allocation is done, not failed — but it gets its own
		// event type so dashboards can track admit/reject rates directly.
		ev.Type = EventRejected
	}
	run.setTerminalEvent(s.events.publish(ev))
	run.finish(state, doc, docJSON, errMsg)
}

// executeRun is the KindRun path: allocate one system, optionally
// simulate, and assemble the report the way cmd/vc2m-sim does. The
// accepted allocation is returned alongside the document so the registry
// can retain it for later churn runs (nil on rejection).
func executeRun(ctx context.Context, req SubmitRequest, prov *provenance.Recorder, sp *obs.Span) (*report.Document, *model.Allocation, error) {
	sys, err := buildSystem(req)
	if err != nil {
		return nil, nil, err
	}
	mode, modeName, err := parseMode(req.Mode)
	if err != nil {
		return nil, nil, err
	}
	var rec *vc2m.MetricsRecorder
	if req.Metrics {
		rec = vc2m.NewMetrics()
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
		Metrics:    rec,
		Provenance: prov,
	}
	a, aerr := vc2m.Allocate(sys, vc2m.Options{
		Mode: mode, Seed: req.Seed, Metrics: rec, Provenance: prov, Context: ctx, Span: sp,
	})
	if aerr != nil {
		if ctx.Err() != nil {
			return nil, nil, aerr
		}
		// The rejection is itself a result: the report carries the
		// decision trail with the binding resource(s).
		in.Rejection = toRejection(aerr)
		return report.BuildRun(in), nil, nil
	}
	in.Allocation = a
	if req.SimulateMs > 0 {
		res, serr := vc2m.Simulate(a, req.SimulateMs, vc2m.SimOptions{
			RecordTrace: true, Metrics: rec, Span: sp,
		})
		if serr != nil {
			return nil, nil, serr
		}
		in.Sim = res
		if res.Missed > 0 {
			in.Diagnosis = vc2m.DiagnoseMisses(res.Events)
		}
	}
	return report.BuildRun(in), a, nil
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
	mode, modeName, err := parseMode(req.Mode)
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

// buildSystem materializes the run's taskset: the posted system verbatim,
// or a workload generated from the posted spec with the request's
// generation seed — the same call vc2m-sim's loadOrGenerate makes.
func buildSystem(req SubmitRequest) (*model.System, error) {
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
	spec := req.Sweep
	plat, err := model.PlatformByName(spec.Platform)
	if err != nil {
		return nil, err
	}
	dist := workload.Uniform
	if spec.Dist != "" {
		if dist, err = workload.ParseDistribution(spec.Dist); err != nil {
			return nil, err
		}
	}
	_, modeName, err := parseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	res, err := experiment.RunSchedulability(experiment.SchedConfig{
		Platform:         plat,
		Dist:             dist,
		UtilMin:          spec.UtilMin,
		UtilMax:          spec.UtilMax,
		UtilStep:         spec.UtilStep,
		TasksetsPerPoint: spec.TasksetsPerPoint,
		Seed:             req.Seed,
		Parallel:         spec.Parallel,
		Provenance:       prov,
		Context:          ctx,
		Span:             sp,
	})
	if err != nil {
		return nil, err
	}
	title := req.Title
	if title == "" {
		title = fmt.Sprintf("vc2m-server sweep %s/%s (seed %d)", plat.Name, dist, req.Seed)
	}
	return report.BuildSweep(report.SweepInput{
		Title:      title,
		Seed:       req.Seed,
		Mode:       modeName,
		Platform:   plat,
		Sweep:      res.ReportSweep(),
		Provenance: prov,
	}), nil
}

// toRejection translates an allocator error into the report's rejection
// section, preserving the binding resource(s) of a RejectionError — the
// same translation the batch CLIs perform (package report deliberately
// does not import alloc).
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
