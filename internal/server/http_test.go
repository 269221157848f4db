package server_test

// HTTP-level tests: the full submit → wait → fetch report loop over
// httptest, using the typed client — and the golden
// byte-identity check between a served report and the same run executed
// in-process through the facade.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vc2m"
	"vc2m/client"
	"vc2m/internal/model"
	"vc2m/internal/report"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

func startHTTP(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s := server.New(cfg)
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, client.New(hs.URL, &http.Client{Timeout: 2 * time.Minute})
}

func submitReq(seed int64, simulateMs float64) server.SubmitRequest {
	return server.SubmitRequest{
		Kind:    server.KindRun,
		Mode:    "flattening",
		GenSeed: seed,
		Generate: &workload.Config{
			Platform:      model.PlatformC,
			TargetRefUtil: 0.8,
			Dist:          workload.Uniform,
		},
		SimulateMs: simulateMs,
	}
}

func TestEndpointLoop(t *testing.T) {
	_, c := startHTTP(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	sub, err := c.Submit(ctx, submitReq(7, 1100))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sub.ID == "" {
		t.Fatal("empty run ID")
	}

	// Fetching the report before completion is a 409, not a hang.
	if _, err := c.ReportBytes(ctx, sub.ID); err == nil {
		st, _ := c.Run(ctx, sub.ID)
		if st.State == server.StatePending || st.State == server.StateRunning {
			t.Error("premature report fetch did not error")
		}
	}

	st, err := c.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state %s (%s), want done", st.State, st.Error)
	}

	doc, err := c.Report(ctx, sub.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if doc.Schema != report.SchemaVersion || doc.Kind != report.KindRun {
		t.Fatalf("schema/kind: %s/%s", doc.Schema, doc.Kind)
	}
	if doc.Sim == nil {
		t.Fatal("simulated run has no sim section")
	}

	// The report carries every decision, in sequence order, and the
	// status counts exactly those.
	for i, d := range doc.Decisions {
		if d.Seq != i {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
	}
	if len(doc.Decisions) == 0 || st.Decisions != len(doc.Decisions) {
		t.Fatalf("status counts %d decisions, report has %d", st.Decisions, len(doc.Decisions))
	}

	runs, err := c.Runs(ctx)
	if err != nil || len(runs) != 1 || runs[0].ID != sub.ID {
		t.Fatalf("list: %v %+v", err, runs)
	}
	m, err := c.Metrics(ctx)
	if err != nil || m.Submitted != 1 || m.ByState[server.StateDone] != 1 {
		t.Fatalf("metrics: %v %+v", err, m)
	}

	if _, err := c.Run(ctx, "r9999"); err == nil {
		t.Error("unknown run ID did not 404")
	}
}

func TestBadSubmissionsOverHTTP(t *testing.T) {
	_, c := startHTTP(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Submit(ctx, server.SubmitRequest{Kind: "bogus"}); err == nil {
		t.Error("bad kind accepted over HTTP")
	}
	if _, err := c.Submit(ctx, server.SubmitRequest{}); err == nil {
		t.Error("empty submission accepted over HTTP")
	}
	// Each of these sweeps used to pass validation and panic the worker
	// goroutine in make(), taking the daemon down with it.
	for _, spec := range []server.SweepSpec{
		{Platform: "A", TasksetsPerPoint: -1},
		{Platform: "A", TasksetsPerPoint: 1e13},
		{Platform: "A", UtilStep: 1e-9},
	} {
		sweep := server.SubmitRequest{Kind: server.KindSweep, Sweep: &spec}
		if _, err := c.Submit(ctx, sweep); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
			t.Errorf("sweep %+v: got %v, want an HTTP 400", spec, err)
		}
	}
	sub, err := c.Submit(ctx, submitReq(1, 0))
	if err != nil {
		t.Fatalf("daemon stopped accepting runs: %v", err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != server.StateDone {
		t.Fatalf("run after the refused submissions: state %q, err %v", st.State, err)
	}
}

// TestGoldenReportByteIdentity is the acceptance check: a seeded
// allocation submitted through the server returns a vc2m.report/v1
// document byte-identical to the same-seed run executed in-process via
// the facade (the calls vc2m-sim makes).
func TestGoldenReportByteIdentity(t *testing.T) {
	const genSeed, allocSeed = 42, 0
	const simulateMs = 1100.0
	spec := workload.Config{
		Platform:      model.PlatformC,
		TargetRefUtil: 1.0,
		Dist:          workload.BimodalLight,
	}
	title := fmt.Sprintf("vc2m-server flattening run (seed %d)", genSeed)

	// In-process reference, mirroring the batch driver.
	inProcess := func() []byte {
		t.Helper()
		sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{
			Platform:      spec.Platform,
			TargetRefUtil: spec.TargetRefUtil,
			Distribution:  "light",
			Seed:          genSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		prov := vc2m.NewProvenance()
		in := report.RunInput{
			Title: title, Seed: genSeed, Mode: "flattening",
			Platform: sys.Platform, Provenance: prov,
		}
		a, err := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.Flattening, Seed: allocSeed, Provenance: prov})
		if err != nil {
			t.Fatal(err)
		}
		in.Allocation = a
		res, err := vc2m.Simulate(a, simulateMs, vc2m.SimOptions{RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		in.Sim = res
		if res.Missed > 0 {
			in.Diagnosis = vc2m.DiagnoseMisses(res.Events)
		}
		data, err := report.Marshal(report.BuildRun(in))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}()

	_, c := startHTTP(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sub, err := c.Submit(ctx, server.SubmitRequest{
		Kind:       server.KindRun,
		Mode:       "flattening",
		Seed:       allocSeed,
		GenSeed:    genSeed,
		Generate:   &spec,
		SimulateMs: simulateMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != server.StateDone {
		t.Fatalf("wait: %v, state %+v", err, st)
	}
	served, err := c.ReportBytes(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, inProcess) {
		t.Fatalf("served report differs from in-process run:\nserved %d bytes, in-process %d bytes",
			len(served), len(inProcess))
	}
}
