package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vc2m"
	"vc2m/internal/report"
	"vc2m/internal/server"
)

// refArgs are the flags of the seeded reference run `make determinism`
// checks; oracle builds the same run on the facade.
var refArgs = []string{"-gen-util", "1.0", "-gen-seed", "7", "-mode", "flattening", "-simulate", "2200"}

// runSim calls run and returns its exit code and stdout.
func runSim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out)
	return code, out.String()
}

// oracle is the reference run built directly on the facade, independent
// of vc2m-sim and of server.ExecuteRun: the allocation, the simulation
// (trace recorded) and the report document it joins into.
func oracle(t *testing.T) (*vc2m.Allocation, *vc2m.SimResult, []byte) {
	t.Helper()
	sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{
		Platform: vc2m.PlatformA, TargetRefUtil: 1.0, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	prov := vc2m.NewProvenance()
	in := report.RunInput{
		Title: "vc2m-sim flattening run (seed 7)", Seed: 7, Mode: "flattening",
		Platform: sys.Platform, Provenance: prov,
	}
	a, err := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.Flattening, Provenance: prov})
	if err != nil {
		t.Fatal(err)
	}
	in.Allocation = a
	res, err := vc2m.Simulate(a, 2200, vc2m.SimOptions{RecordTrace: true})
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
	return a, res, data
}

// TestInProcessRunMatchesOracle: the in-process run writes the report,
// the JSONL trace and the Chrome trace the facade oracle produces, and
// prints the allocation and simulation summary.
func TestInProcessRunMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "run.json")
	jsonlPath := filepath.Join(dir, "run.jsonl")
	chromePath := filepath.Join(dir, "run.chrome.json")
	code, out := runSim(t, append(refArgs, "-report-out", reportPath, "-trace-jsonl", jsonlPath, "-trace-out", chromePath)...)
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s", code, out)
	}
	a, res, wantReport := oracle(t)

	gotReport, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotReport, wantReport) {
		t.Errorf("-report-out differs from the facade oracle:\n%s", gotReport)
	}

	f, err := os.Open(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := vc2m.ReadTraceJSONL(f)
	_ = f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || !reflect.DeepEqual(events, res.Events) {
		t.Errorf("-trace-jsonl holds %d events, a direct Simulate records %d (or they differ)", len(events), len(res.Events))
	}

	var wantChrome bytes.Buffer
	if err := vc2m.WriteTraceChrome(&wantChrome, res.Events); err != nil {
		t.Fatal(err)
	}
	gotChrome, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotChrome, wantChrome.Bytes()) {
		t.Error("-trace-out differs from WriteTraceChrome of the oracle's events")
	}

	want := a.Report() + fmt.Sprintf("simulated 2200 ms: %d jobs released, %d completed, %d deadline misses\n",
		res.Released, res.Completed, res.Missed)
	if out != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", out, want)
	}
}

// TestRejectedRunWritesReport: an over-utilized system is rejected; the
// run still writes its report, carrying the rejection and the decision
// trail, and exits 1.
func TestRejectedRunWritesReport(t *testing.T) {
	reportPath := filepath.Join(t.TempDir(), "run.json")
	code, _ := runSim(t, "-gen-util", "3.0", "-gen-seed", "7", "-report-out", reportPath)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	doc, err := report.Load(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Rejection == nil || doc.Allocation != nil || doc.Sim != nil {
		t.Fatalf("report of a rejected run: rejection %+v, allocation %v, sim %v", doc.Rejection, doc.Allocation, doc.Sim)
	}
	if len(doc.Decisions) == 0 {
		t.Error("rejected run's report has no decision trail")
	}
}

// TestMetricsInBothModes: -metrics prints the counter table in-process
// and, with -server, the served report's counters; -server's report is
// the in-process one byte for byte.
func TestMetricsInBothModes(t *testing.T) {
	dir := t.TempDir()
	localReport := filepath.Join(dir, "local.json")
	code, out := runSim(t, "-gen-util", "1.0", "-gen-seed", "7", "-simulate", "500", "-metrics", "-report-out", localReport)
	if code != 0 {
		t.Fatalf("in-process: exit %d", code)
	}
	if !strings.Contains(out, "# allocator + simulator metrics\ncounter") || !strings.Contains(out, "hypersim.jobs_released") {
		t.Errorf("in-process -metrics printed no counter table:\n%s", out)
	}

	srv := server.New(server.Config{Workers: 1})
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	servedReport := filepath.Join(dir, "served.json")
	code, out = runSim(t, "-server", hs.URL, "-gen-util", "1.0", "-gen-seed", "7", "-simulate", "500",
		"-metrics", "-diagnose", "-report-out", servedReport)
	if code != 0 {
		t.Fatalf("-server: exit %d, stdout:\n%s", code, out)
	}
	if !strings.Contains(out, "# allocator + simulator counters (served report)\ncounter") || !strings.Contains(out, "hypersim.jobs_released") {
		t.Errorf("-server -metrics printed no counter table:\n%s", out)
	}
	local, err := os.ReadFile(localReport)
	if err != nil {
		t.Fatal(err)
	}
	served, err := os.ReadFile(servedReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, served) {
		t.Error("served report differs from the in-process report")
	}
}

// TestPrintMisses: -diagnose with -server prints the served report's
// miss causes, and nothing when no deadline was missed.
func TestPrintMisses(t *testing.T) {
	var buf bytes.Buffer
	printMisses(&buf, nil)
	if buf.Len() != 0 {
		t.Errorf("no misses printed %q", buf.String())
	}
	printMisses(&buf, []report.MissSummary{{Task: "t3", Cause: "throttled", Count: 2}, {Task: "t5", Cause: "overrun", Count: 1}})
	want := "# deadline misses by task and cause (served report)\n  t3: 2 throttled\n  t5: 1 overrun\n"
	if buf.String() != want {
		t.Errorf("printed:\n%s\nwant:\n%s", buf.String(), want)
	}
}
