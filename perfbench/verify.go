package main

import (
	"encoding/json"
	"fmt"

	"vc2m"
	"vc2m/internal/alloc"
	"vc2m/internal/model"
	"vc2m/internal/report"
	"vc2m/internal/server"
)

// checkReport is the per-report output check: every served document
// passes report.Validate, a churn run always reports its final layout,
// and a schedulable simulated run shows zero deadline misses (the paper's
// soundness invariant).
func checkReport(w serveWorkload, data []byte) error {
	var doc report.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("decode report: %w", err)
	}
	if err := report.Validate(&doc); err != nil {
		return fmt.Errorf("invalid report: %w", err)
	}
	if w.churn && doc.Allocation == nil {
		return fmt.Errorf("churn report without an allocation")
	}
	if w.simulateMs > 0 && doc.Allocation != nil {
		if doc.Sim == nil {
			return fmt.Errorf("schedulable run reports no simulation")
		}
		if doc.Sim.Missed > 0 {
			return fmt.Errorf("schedulable allocation missed %d deadlines in simulation", doc.Sim.Missed)
		}
	}
	return nil
}

// facadeRunReport builds a KindRun request's report in-process through the
// vc2m facade, the way TestGoldenReportByteIdentity does.
func facadeRunReport(req server.SubmitRequest) ([]byte, error) {
	gen := req.Generate
	sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{
		Platform:      gen.Platform,
		TargetRefUtil: gen.TargetRefUtil,
		Distribution:  gen.Dist.String(),
		NumVMs:        gen.NumVMs,
		Seed:          req.GenSeed,
	})
	if err != nil {
		return nil, err
	}
	prov := vc2m.NewProvenance()
	in := report.RunInput{
		Title: fmt.Sprintf("vc2m-server %s run (seed %d)", req.Mode, req.GenSeed),
		Seed:  req.GenSeed, Mode: req.Mode, Platform: sys.Platform, Provenance: prov,
	}
	a, err := vc2m.Allocate(sys, vc2m.Options{Mode: parseMode(req.Mode), Seed: req.Seed, Provenance: prov})
	if err != nil {
		in.Rejection = rejection(err)
		return report.Marshal(report.BuildRun(in))
	}
	in.Allocation = a
	if req.SimulateMs > 0 {
		res, err := vc2m.Simulate(a, req.SimulateMs, vc2m.SimOptions{RecordTrace: true})
		if err != nil {
			return nil, err
		}
		in.Sim = res
		if res.Missed > 0 {
			in.Diagnosis = vc2m.DiagnoseMisses(res.Events)
		}
	}
	return report.Marshal(report.BuildRun(in))
}

// facadeChurnReport builds a churn request's report in-process through
// vc2m.Incremental, the way TestChurnGoldenByteIdentity does.
func facadeChurnReport(prev *model.Allocation, baseID string, req server.SubmitRequest) ([]byte, error) {
	cur := prev
	prov := vc2m.NewProvenance()
	for i, ev := range req.Churn.Events {
		res, err := vc2m.Incremental(cur, vc2m.ChurnDelta{Arrivals: ev.Arrivals, Departures: ev.Departures},
			vc2m.Options{Mode: parseMode(req.Mode), Seed: req.Seed + int64(i), Provenance: prov})
		if err != nil {
			return nil, fmt.Errorf("churn event %d: %w", i, err)
		}
		cur = res.Allocation
	}
	return report.Marshal(report.BuildRun(report.RunInput{
		Title:      fmt.Sprintf("vc2m-server churn run (base %s, seed %d)", baseID, req.Seed),
		Seed:       req.Seed,
		Mode:       req.Mode,
		Platform:   cur.Platform,
		Allocation: cur,
		Provenance: prov,
	}))
}

// rejection is the report section the server derives from an allocator
// error.
func rejection(err error) *report.Rejection {
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
