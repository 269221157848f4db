// vc2m-sim is the end-to-end driver: it loads (or generates) a system,
// runs a vC2M allocation strategy on it, optionally executes the result on
// the hypervisor simulator, and reports the outcome. Systems and
// allocations are exchanged as JSON, so allocations can be produced once
// and inspected or replayed later.
//
// The flags become one server.SubmitRequest. In-process, vc2m-sim runs it
// through server.ExecuteRun, the recipe vc2m-server's workers run; with
// -server it submits the request to a vc2m-server daemon instead. Either
// way the report is byte-identical for the same seeds.
//
// Examples:
//
//	vc2m-sim -gen-util 1.2 -gen-seed 7 -dump-system system.json
//	vc2m-sim -in system.json -mode flattening -out alloc.json
//	vc2m-sim -gen-util 1.0 -mode overheadfree -simulate 2200
//	vc2m-sim -server http://127.0.0.1:8700 -gen-util 1.0 -report-out run.json
//	vc2m-sim -gen-util 1.2 -mode existing -spans -spans-out spans.json
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vc2m"
	"vc2m/client"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/profutil"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the defer-safe driver: every exit path unwinds through it, so
// deferred profile and span writers always execute and no partial output
// is silently truncated. Results print to stdout; progress notes and
// errors go to os.Stderr.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vc2m-sim", flag.ContinueOnError)
	in := fs.String("in", "", "input system JSON file (omit to generate a workload)")
	genUtil := fs.Float64("gen-util", 1.0, "generated workload's target reference utilization")
	genDist := fs.String("gen-dist", "uniform", "generated workload's distribution: uniform, light, medium, heavy")
	genSeed := fs.Int64("gen-seed", 1, "generated workload's seed")
	platform := fs.String("platform", "A", "platform for generated workloads: A, B or C")
	dumpSystem := fs.String("dump-system", "", "write the (generated) system JSON here and exit")
	mode := fs.String("mode", "flattening", "analysis mode: flattening, overheadfree or existing")
	seed := fs.Int64("seed", 0, "allocator seed")
	out := fs.String("out", "", "write the allocation JSON here")
	simulate := fs.Float64("simulate", 2200, "simulate the allocation for this many ms (0 to skip)")
	gantt := fs.Float64("gantt", 0, "render an execution Gantt chart for the first N ms of the simulation")
	showMetrics := fs.Bool("metrics", false, "record and print allocator and simulator metrics (search effort, scheduler events)")
	metricsCSV := fs.String("metrics-csv", "", "also write the metrics to this CSV file (implies -metrics)")
	traceOut := fs.String("trace-out", "", "write the simulation's flight-recorder trace as Chrome trace-event JSON (open in ui.perfetto.dev)")
	traceJSONL := fs.String("trace-jsonl", "", "write the simulation's flight-recorder trace as JSON lines (replay with vc2m-trace)")
	diagnose := fs.Bool("diagnose", false, "on deadline misses, print a per-task miss-cause breakdown")
	provFlag := fs.Bool("provenance", false, "record the allocator's decision stream and print it after the run")
	reportOut := fs.String("report-out", "", "write a unified run report JSON here (implies -provenance; inspect with vc2m-report)")
	serverURL := fs.String("server", "", "submit the run to a vc2m-server daemon at this URL instead of executing in-process")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	spansOut := fs.String("spans-out", "", "write the run's wall-clock stage spans as Chrome trace-event JSON (open in ui.perfetto.dev)")
	spans := fs.Bool("spans", false, "print a wall-clock stage-latency breakdown after the run")
	slowRun := fs.Duration("slow-run", 0, "log a per-stage breakdown if the run exceeds this wall time (0 disables)")
	logCfg := obs.LogFlags(fs, "warn")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// An interrupt cancels the in-flight allocation (or the pending
	// server call); completed outputs flush on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := realMain(ctx, stdout, simFlags{
		in: *in, genUtil: *genUtil, genDist: *genDist, genSeed: *genSeed,
		platform: *platform, dumpSystem: *dumpSystem, mode: *mode, seed: *seed,
		out: *out, simulate: *simulate, gantt: *gantt,
		showMetrics: *showMetrics, metricsCSV: *metricsCSV,
		traceOut: *traceOut, traceJSONL: *traceJSONL,
		diagnose: *diagnose, provenance: *provFlag, reportOut: *reportOut,
		serverURL: *serverURL, cpuprofile: *cpuprofile, memprofile: *memprofile,
		spansOut: *spansOut, spans: *spans, slowRun: *slowRun, logCfg: logCfg,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-sim:", err)
		return 1
	}
	return 0
}

type simFlags struct {
	in          string
	genUtil     float64
	genDist     string
	genSeed     int64
	platform    string
	dumpSystem  string
	mode        string
	seed        int64
	out         string
	simulate    float64
	gantt       float64
	showMetrics bool
	metricsCSV  string
	traceOut    string
	traceJSONL  string
	diagnose    bool
	provenance  bool
	reportOut   string
	serverURL   string
	cpuprofile  string
	memprofile  string
	spansOut    string
	spans       bool
	slowRun     time.Duration
	logCfg      *obs.LogConfig
}

func realMain(ctx context.Context, out io.Writer, f simFlags) error {
	lg, err := f.logCfg.Build(os.Stderr, obs.GetBuildInfo().LogAttrs()...)
	if err != nil {
		return err
	}
	req, err := f.request()
	if err != nil {
		return err
	}
	if f.serverURL != "" {
		return runViaServer(ctx, out, f, req)
	}

	stopProf, err := profutil.Start(f.cpuprofile, f.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "vc2m-sim: profile:", perr)
		}
	}()

	// Wall-clock span instrumentation: one trace per invocation, rooted
	// at a "run" span the allocator and simulator hang their stage spans
	// under. Spans live strictly outside the report/allocation outputs,
	// so enabling them never changes a run's bytes. The trace finalizes
	// on every exit path — a rejected allocation is exactly the kind of
	// run worth profiling.
	var tr *obs.Trace
	var rootSpan *vc2m.Span
	if f.spansOut != "" || f.spans || f.slowRun > 0 {
		tr = obs.NewTrace()
		rootSpan = tr.StartSpan(obs.StageRun)
	}
	begin := time.Now() //vc2m:wallclock slow-run threshold is wall time by design
	defer func() {
		rootSpan.End()
		lg.LogSlow(tr, "vc2m-sim", time.Since(begin), f.slowRun) //vc2m:wallclock slow-run threshold is wall time by design
		if f.spans {
			fmt.Fprintln(out, "# wall-clock stage breakdown")
			_ = tr.WriteBreakdown(out)
		}
		if f.spansOut != "" {
			if werr := writeSpans(f.spansOut, tr); werr != nil {
				fmt.Fprintln(os.Stderr, "vc2m-sim: spans:", werr)
			}
		}
	}()

	if f.dumpSystem != "" {
		sys, err := server.BuildSystem(req)
		if err != nil {
			return err
		}
		data, err := model.EncodeSystem(sys)
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.dumpSystem, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d VMs, %d tasks, reference utilization %.2f)\n",
			f.dumpSystem, len(sys.VMs), len(sys.Tasks()), sys.RefUtil())
		return nil
	}

	if err := req.Validate(); err != nil {
		return err
	}
	var prov *provenance.Recorder
	if f.provenance || f.reportOut != "" {
		prov = vc2m.NewProvenance()
	}
	res, err := server.ExecuteRun(ctx, req, prov, rootSpan)
	if err != nil {
		return err
	}
	if rej := res.Doc.Rejection; rej != nil {
		// The rejection is itself a result: persist the decision trail
		// (with the binding resource) before exiting non-zero.
		if werr := writeReport(f.reportOut, res.Doc); werr != nil {
			fmt.Fprintln(os.Stderr, "vc2m-sim: report:", werr)
		}
		return errors.New(rej.Reason)
	}
	fmt.Fprint(out, res.Allocation.Report())

	if f.out != "" {
		data, err := model.EncodeAllocation(res.Allocation)
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote allocation to %s\n", f.out)
	}

	if sim := res.Sim; sim != nil {
		if err := writeTrace(f.traceOut, sim.Events, vc2m.WriteTraceChrome, "open in ui.perfetto.dev"); err != nil {
			return err
		}
		if err := writeTrace(f.traceJSONL, sim.Events, vc2m.WriteTraceJSONL, "inspect with vc2m-trace"); err != nil {
			return err
		}
		fmt.Fprintf(out, "simulated %.0f ms: %d jobs released, %d completed, %d deadline misses\n",
			f.simulate, sim.Released, sim.Completed, sim.Missed)
		if f.gantt > 0 {
			fmt.Fprint(out, vc2m.RenderGantt(sim, 0, f.gantt, 100))
		}
		if sim.Missed > 0 {
			if f.diagnose {
				fmt.Fprint(out, vc2m.DiagnoseMisses(sim.Events).Render())
			}
			if werr := writeReport(f.reportOut, res.Doc); werr != nil {
				fmt.Fprintln(os.Stderr, "vc2m-sim: report:", werr)
			}
			return errMissed
		}
	}
	if err := writeReport(f.reportOut, res.Doc); err != nil {
		return err
	}

	if f.provenance {
		printDecisions(out, res.Doc.Decisions)
	}
	if res.Metrics != nil {
		snap := res.Metrics.Snapshot()
		fmt.Fprintln(out, "# allocator + simulator metrics")
		fmt.Fprint(out, snap.Table())
		if f.metricsCSV != "" {
			if err := writeMetricsCSV(f.metricsCSV, snap, req.Mode); err != nil {
				return err
			}
		}
	}
	return nil
}

// errMissed is the end-to-end guarantee failing: an allocation the
// analysis accepted missed deadlines in simulation.
var errMissed = errors.New("allocation declared schedulable but missed deadlines")

// request turns the flags into the one submission both paths run:
// in-process through server.ExecuteRun, or on a vc2m-server with -server.
func (f simFlags) request() (server.SubmitRequest, error) {
	_, modeName, err := server.ParseMode(f.mode)
	if err != nil {
		return server.SubmitRequest{}, err
	}
	req := server.SubmitRequest{
		Kind:       server.KindRun,
		Title:      fmt.Sprintf("vc2m-sim %s run (seed %d)", modeName, f.genSeed),
		Mode:       modeName,
		Seed:       f.seed,
		GenSeed:    f.genSeed,
		SimulateMs: f.simulate,
		Metrics:    f.showMetrics || f.metricsCSV != "",
	}
	if f.in != "" {
		data, err := os.ReadFile(f.in)
		if err != nil {
			return server.SubmitRequest{}, err
		}
		if req.System, err = model.DecodeSystem(data); err != nil {
			return server.SubmitRequest{}, err
		}
		return req, nil
	}
	plat, err := model.PlatformByName(f.platform)
	if err != nil {
		return server.SubmitRequest{}, err
	}
	dist, err := workload.ParseDistribution(f.genDist)
	if err != nil {
		return server.SubmitRequest{}, err
	}
	req.Generate = &workload.Config{Platform: plat, TargetRefUtil: f.genUtil, Dist: dist}
	return req, nil
}

// runViaServer submits the request to a vc2m-server daemon and fetches
// the report, which it streams verbatim into -report-out.
func runViaServer(ctx context.Context, out io.Writer, f simFlags, req server.SubmitRequest) error {
	localOnly := []struct {
		name string
		set  bool
	}{
		{"-dump-system", f.dumpSystem != ""},
		{"-out", f.out != ""},
		{"-gantt", f.gantt > 0},
		{"-trace-out", f.traceOut != ""},
		{"-trace-jsonl", f.traceJSONL != ""},
		{"-metrics-csv", f.metricsCSV != ""},
		{"-cpuprofile", f.cpuprofile != ""},
		{"-memprofile", f.memprofile != ""},
		{"-spans-out", f.spansOut != ""},
		{"-spans", f.spans},
		{"-slow-run", f.slowRun > 0},
	}
	for _, flag := range localOnly {
		if flag.set {
			return fmt.Errorf("%s is local-only and cannot be combined with -server", flag.name)
		}
	}

	c := client.New(f.serverURL, nil)
	sub, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "submitted as %s to %s\n", sub.ID, f.serverURL)
	st, err := c.Wait(ctx, sub.ID)
	if err != nil {
		return err
	}
	switch st.State {
	case server.StateDone:
	case server.StateFailed, server.StateCanceled:
		return fmt.Errorf("run %s %s: %s", st.ID, st.State, st.Error)
	}
	data, err := c.ReportBytes(ctx, sub.ID)
	if err != nil {
		return err
	}
	var doc report.Document
	if derr := json.Unmarshal(data, &doc); derr != nil {
		return derr
	}
	if f.reportOut != "" {
		if err := os.WriteFile(f.reportOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote report to %s (inspect with vc2m-report)\n", f.reportOut)
	}
	if doc.Rejection != nil {
		return errors.New(doc.Rejection.Reason)
	}
	if doc.Allocation != nil {
		fmt.Fprintf(out, "allocation: %s, %d cores, schedulable %v\n",
			doc.Allocation.Solution, len(doc.Allocation.Cores), doc.Allocation.Schedulable)
	}
	if doc.Sim != nil {
		fmt.Fprintf(out, "simulated: %d jobs released, %d completed, %d deadline misses\n",
			doc.Sim.Released, doc.Sim.Completed, doc.Sim.Missed)
	}
	if f.diagnose {
		printMisses(out, doc.Misses)
	}
	if f.provenance {
		printDecisions(out, doc.Decisions)
	}
	if f.showMetrics {
		// The served report keeps only the deterministic counters; its
		// wall-clock timers stay on the server.
		fmt.Fprintln(out, "# allocator + simulator counters (served report)")
		fmt.Fprint(out, metrics.Snapshot{Counters: doc.Counters}.Table())
	}
	if doc.Sim != nil && doc.Sim.Missed > 0 {
		return errMissed
	}
	return nil
}

// printDecisions prints the allocator's decision trail (-provenance).
func printDecisions(out io.Writer, decisions []provenance.Decision) {
	fmt.Fprintf(out, "# %d allocation decision(s)\n", len(decisions))
	for _, d := range decisions {
		fmt.Fprintln(out, report.FormatDecision(d))
	}
}

// printMisses prints a served report's per-task miss causes (-diagnose
// with -server). Like the in-process breakdown, it prints nothing when no
// deadline was missed.
func printMisses(out io.Writer, misses []report.MissSummary) {
	if len(misses) == 0 {
		return
	}
	fmt.Fprintln(out, "# deadline misses by task and cause (served report)")
	for _, m := range misses {
		fmt.Fprintf(out, "  %s: %d %s\n", m.Task, m.Count, m.Cause)
	}
}

// writeReport saves the run's report document; a no-op without
// -report-out.
func writeReport(path string, doc *report.Document) error {
	if path == "" {
		return nil
	}
	if err := report.Save(path, doc); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote report to %s (inspect with vc2m-report)\n", path)
	return nil
}

// writeTrace writes a recorded event stream to path with one of the
// batch trace writers; a no-op when path is empty.
func writeTrace(path string, events []vc2m.TraceEvent, write func(io.Writer, []vc2m.TraceEvent) error, hint string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, events); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote trace to %s (%s)\n", path, hint)
	return nil
}

// writeSpans exports the wall-clock span trace as Chrome trace-event
// JSON — same viewer as -trace-out, but the timeline is real elapsed time
// across pipeline stages, not simulated hypervisor time.
func writeSpans(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote spans to %s (open in ui.perfetto.dev)\n", path)
	return nil
}

// writeMetricsCSV dumps the snapshot as (scope, kind, name, value, ...)
// rows, with the analysis mode as the scope.
func writeMetricsCSV(path string, snap vc2m.MetricsSnapshot, scope string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(metrics.CSVHeader()); err != nil {
		return err
	}
	for _, row := range snap.CSVRows(scope) {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
