package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vc2m/internal/experiment"
	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/report"
	"vc2m/internal/workload"
)

// small is the reduced sweep scale every test here runs at.
var small = []string{"-tasksets", "2", "-step", "0.5"}

func runPaper(t *testing.T, args ...string) (out string, code int) {
	t.Helper()
	out = t.TempDir()
	return out, run(append([]string{"-out", out}, args...))
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestUnknownStageExits2(t *testing.T) {
	for _, only := range []string{"fig9", "fig2a,bogus", "fig2a fig2b", "fig2a,"} {
		if _, code := runPaper(t, "-only", only); code != 2 {
			t.Errorf("-only %q exited %d, want 2", only, code)
		}
	}
}

func TestOnlyFig2aWritesItsFilesByteIdentical(t *testing.T) {
	out, code := runPaper(t, append(small, "-only", "fig2a")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if got, want := dirNames(t, out), []string{"fig2a.csv", "fig2a.txt"}; !slices.Equal(got, want) {
		t.Fatalf("wrote %v, want %v", got, want)
	}
	res, err := experiment.RunSchedulability(experiment.SchedConfig{
		Platform: model.PlatformA, Dist: workload.Uniform,
		UtilStep: 0.5, TasksetsPerPoint: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteFractionsCSV(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(out, "fig2a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("fig2a.csv differs from the in-process sweep:\n%s\nwant:\n%s", got, want.Bytes())
	}
	txt, err := os.ReadFile(filepath.Join(out, "fig2a.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "Fraction of schedulable tasksets (platform A, uniform)") {
		t.Errorf("fig2a.txt lacks the ASCII chart:\n%s", txt)
	}
}

func TestOnlyFig4RunsFig2aSweep(t *testing.T) {
	out, code := runPaper(t, append(small, "-only", "fig4")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	want := []string{"fig2a.csv", "fig2a.txt", "fig4.csv", "fig4.txt"}
	if got := dirNames(t, out); !slices.Equal(got, want) {
		t.Fatalf("wrote %v, want %v", got, want)
	}
}

func TestMetricsWritesMetricsCSV(t *testing.T) {
	out, code := runPaper(t, append(small, "-only", "fig2c", "-metrics")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	want := []string{"fig2c.csv", "fig2c.metrics.csv", "fig2c.txt"}
	if got := dirNames(t, out); !slices.Equal(got, want) {
		t.Fatalf("wrote %v, want %v", got, want)
	}
	txt, err := os.ReadFile(filepath.Join(out, "fig2c.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "# per-solution search-effort metrics") {
		t.Errorf("fig2c.txt lacks the metrics table:\n%s", txt)
	}
}

func TestReportOutWithoutFig2a(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	if _, code := runPaper(t, append(small, "-only", "fig3b", "-report-out", path)...); code != 0 {
		t.Fatalf("exit %d", code)
	}
	doc, err := report.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Validate(doc); err != nil {
		t.Fatal(err)
	}
	if doc.Sweep == nil || len(doc.Decisions) == 0 {
		t.Errorf("report lacks the fig3b sweep or its decisions: sweep=%v decisions=%d", doc.Sweep, len(doc.Decisions))
	}
}

func TestReportOutNeedsASweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	if _, code := runPaper(t, "-only", "regperiod", "-report-out", path); code != 2 {
		t.Errorf("-report-out without a sweep stage exited %d, want 2", code)
	}
}

func TestSec33WritesEveryProfile(t *testing.T) {
	out, code := runPaper(t, "-only", "sec33")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(filepath.Join(out, "sec33-profiles.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range parsec.Names() {
		if !strings.Contains(string(data), "s(c,b) for "+name+" on") {
			t.Errorf("sec33-profiles.txt lacks %s", name)
		}
	}
}

func TestServerConflictsExit2(t *testing.T) {
	// No daemon listens here: every case must fail flag checking before
	// any request is made.
	srv := []string{"-server", "http://127.0.0.1:1"}
	dir := t.TempDir()
	for _, extra := range [][]string{
		{"-report-out", filepath.Join(dir, "r.json")},
		{"-cpuprofile", filepath.Join(dir, "cpu.pprof")},
		{"-memprofile", filepath.Join(dir, "mem.pprof")},
		{"-metrics"},
		{"-only", "fig4"},
		{"-only", "fig2a,tables"},
	} {
		if _, code := runPaper(t, append(srv, extra...)...); code != 2 {
			t.Errorf("-server with %v exited %d, want 2", extra, code)
		}
	}
}
