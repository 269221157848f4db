// vc2m-paper reproduces the paper's complete evaluation in one command:
// Figures 2(a-c) and 3(a-c), Figure 4, Tables 1 and 2, the Section 3.3
// isolation study, and this repository's additions (the VM-count,
// partition-count, regulation-period and online-admission studies). Text
// tables and CSVs are written under -out.
//
// -only runs a comma-separated subset of the stages (fig2a fig2b fig2c
// fig3a fig3b fig3c fig4 tables sec33 vmcount partition regperiod online);
// empty runs them all. A stage writes the same files alone as in the full
// run. fig4 is derived from the fig2a sweep, so it runs that sweep (once)
// and writes fig2a's files too.
//
// The default scale is the paper's: 50 tasksets per utilization point,
// step 0.05 (1950 tasksets per figure). An interrupt (SIGINT or SIGTERM)
// stops a sweep at the next utilization point, flushes the points
// completed so far, and exits non-zero.
//
// With -server the selected figure sweeps are submitted to a vc2m-server
// daemon as sweep runs; each figure's report document is fetched and
// written under -out as <figure>.report.json.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"vc2m/client"
	"vc2m/internal/experiment"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/parsec"
	"vc2m/internal/plot"
	"vc2m/internal/profutil"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

// figure is one schedulability sweep of Figures 2 and 3.
type figure struct {
	name string
	plat model.Platform
	dist workload.Distribution
}

var figures = []figure{
	{"fig2a", model.PlatformA, workload.Uniform},
	{"fig2b", model.PlatformB, workload.Uniform},
	{"fig2c", model.PlatformC, workload.Uniform},
	{"fig3a", model.PlatformA, workload.BimodalLight},
	{"fig3b", model.PlatformA, workload.BimodalMedium},
	{"fig3c", model.PlatformA, workload.BimodalHeavy},
}

// stage is one selectable unit of the evaluation. fig is set on the six
// figure sweeps, the only stages a vc2m-server daemon can run.
type stage struct {
	name string
	fig  *figure
	run  func(*paper, context.Context) error
}

// stages lists every stage in execution order.
var stages = append(figureStages(), []stage{
	{name: "fig4", run: (*paper).fig4},
	{name: "tables", run: (*paper).tables},
	{name: "sec33", run: (*paper).sec33},
	{name: "vmcount", run: (*paper).vmCount},
	{name: "partition", run: (*paper).partition},
	{name: "regperiod", run: (*paper).regPeriod},
	{name: "online", run: (*paper).online},
}...)

func figureStages() []stage {
	out := make([]stage, len(figures))
	for i := range figures {
		fig := &figures[i]
		out[i] = stage{name: fig.name, fig: fig, run: func(p *paper, ctx context.Context) error {
			_, err := p.sweep(ctx, *fig)
			return err
		}}
	}
	return out
}

func stageNames() string {
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.name
	}
	return strings.Join(names, " ")
}

// selectStages resolves -only into stages, in execution order; an empty
// list selects every stage.
func selectStages(only string) ([]stage, error) {
	if only == "" {
		return stages, nil
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if !slices.ContainsFunc(stages, func(st stage) bool { return st.name == name }) {
			return nil, fmt.Errorf("unknown stage %q in -only; valid stages: %s", name, stageNames())
		}
		want[name] = true
	}
	var sel []stage
	for _, st := range stages {
		if want[st.name] {
			sel = append(sel, st)
		}
	}
	return sel, nil
}

// paper holds one invocation's settings and the results its stages share.
type paper struct {
	out        string
	tasksets   int
	step       float64
	seed       int64
	parallel   int
	metrics    bool
	reportOut  string
	serverURL  string
	cpuprofile string
	memprofile string

	// prov records every sweep's per-taskset decisions for -report-out
	// (nil without it); the per-figure ProvenanceLabel keeps the cases
	// distinguishable ("fig3a/u=1.00/ts=7").
	prov *provenance.Recorder
	// sweeps holds the completed figure sweeps by name, so fig4 reuses
	// fig2a's; first is the first one run, which -report-out summarizes.
	sweeps map[string]*experiment.SchedResult
	first  *experiment.SchedResult
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the defer-safe driver: every exit path unwinds through it, so
// profiles stop cleanly and partially-completed figures are flushed even
// when a later stage fails or the run is interrupted.
func run(args []string) int {
	fs := flag.NewFlagSet("vc2m-paper", flag.ContinueOnError)
	p := &paper{sweeps: make(map[string]*experiment.SchedResult)}
	only := fs.String("only", "", "comma-separated stages to run, from: "+stageNames()+" (empty: all)")
	fs.StringVar(&p.out, "out", "results", "output directory")
	fs.IntVar(&p.tasksets, "tasksets", 50, "tasksets per utilization point (paper: 50)")
	fs.Float64Var(&p.step, "step", 0.05, "utilization step (paper: 0.05)")
	fs.Int64Var(&p.seed, "seed", 1, "random seed")
	fs.IntVar(&p.parallel, "parallel", runtime.NumCPU(), "tasksets/trials analyzed concurrently (results are identical at any value; use 1 when timing, e.g. for fig4)")
	fs.BoolVar(&p.metrics, "metrics", false, "collect per-solution search-effort metrics in every sweep: <fig>.metrics.csv, and a table appended to <fig>.txt (distorts fig4's wall times)")
	fs.StringVar(&p.reportOut, "report-out", "", "write one unified sweep report JSON covering the selected figures here (inspect with vc2m-report)")
	fs.StringVar(&p.serverURL, "server", "", "submit the selected figure sweeps to a vc2m-server daemon at this URL instead of running in-process")
	fs.StringVar(&p.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	logCfg := obs.LogFlags(fs, "warn")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sel, err := selectStages(*only)
	if *only == "" && p.serverURL != "" {
		sel = stages[:len(figures)] // everything a daemon can run
	}
	if err == nil {
		err = p.check(sel)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-paper:", err)
		return 2
	}
	lg, err := logCfg.Build(os.Stderr, obs.GetBuildInfo().LogAttrs()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-paper:", err)
		return 2
	}
	lg.Debug("starting", "cmd", "vc2m-paper")

	// An interrupt cancels the sweep at the next utilization point; the
	// points completed so far still flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := p.runStages(ctx, sel); err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-paper:", err)
		return 1
	}
	return 0
}

// check rejects flag combinations that would otherwise be ignored.
func (p *paper) check(sel []stage) error {
	if p.serverURL != "" {
		switch {
		case p.reportOut != "":
			return errors.New("-report-out does not apply under -server (each figure's report is written under -out)")
		case p.cpuprofile != "" || p.memprofile != "":
			return errors.New("-cpuprofile/-memprofile do not apply under -server (the daemon does the work)")
		case p.metrics:
			return errors.New("-metrics does not apply under -server (sweep runs record no metrics)")
		}
		for _, st := range sel {
			if st.fig == nil {
				return fmt.Errorf("stage %s cannot run under -server; only the figure sweeps can", st.name)
			}
		}
	}
	if p.reportOut != "" {
		for _, st := range sel {
			if st.fig != nil || st.name == "fig4" {
				return nil
			}
		}
		return errors.New("-report-out needs a figure sweep among the -only stages")
	}
	return nil
}

func (p *paper) runStages(ctx context.Context, sel []stage) error {
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return err
	}
	if p.serverURL != "" {
		return p.runViaServer(ctx, sel)
	}

	stopProf, err := profutil.Start(p.cpuprofile, p.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "vc2m-paper: profile:", perr)
		}
	}()

	if p.reportOut != "" {
		p.prov = provenance.New()
	}
	for _, st := range sel {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := st.run(p, ctx); err != nil {
			return err
		}
	}
	if p.reportOut != "" {
		doc := report.BuildSweep(report.SweepInput{
			Title:      fmt.Sprintf("vc2m-paper figure sweeps (seed %d)", p.seed),
			Seed:       p.seed,
			Platform:   p.first.Platform,
			Sweep:      p.first.ReportSweep(),
			Provenance: p.prov,
		})
		if err := report.Save(p.reportOut, doc); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote report to %s (inspect with vc2m-report)\n", p.reportOut)
	}
	fmt.Fprintf(os.Stderr, "done; outputs in %s/\n", p.out)
	return nil
}

// sweep runs one figure's schedulability sweep, at most once per
// invocation, and writes <fig>.txt (table, summary and ASCII chart) and
// <fig>.csv, plus <fig>.metrics.csv under -metrics. On an interrupt the
// completed utilization points are written before the error returns.
func (p *paper) sweep(ctx context.Context, fig figure) (*experiment.SchedResult, error) {
	if res, ok := p.sweeps[fig.name]; ok {
		return res, nil
	}
	fmt.Fprintf(os.Stderr, "%s (platform %s, %s)...\n", fig.name, fig.plat.Name, fig.dist)
	res, err := experiment.RunSchedulability(experiment.SchedConfig{
		Platform:         fig.plat,
		Dist:             fig.dist,
		UtilStep:         p.step,
		TasksetsPerPoint: p.tasksets,
		Seed:             p.seed,
		Parallel:         p.parallel,
		CollectMetrics:   p.metrics,
		Provenance:       p.prov,
		ProvenanceLabel:  fig.name,
		Context:          ctx,
	})
	if res == nil {
		return nil, err
	}
	txt := res.FractionTable() + "\n" + res.Summary()
	// A complete sweep always has points to plot; an interrupted one may
	// not, and then the table alone is flushed.
	if chart, perr := fractionChart(res); perr == nil {
		txt += "\n" + chart
	} else if err == nil {
		err = perr
	}
	if p.metrics {
		txt += "\n# per-solution search-effort metrics\n" + res.MetricsTable()
		err = errors.Join(err, writeCSV(p.out, fig.name+".metrics.csv", res.WriteMetricsCSV))
	}
	err = errors.Join(err,
		writeFile(p.out, fig.name+".txt", txt),
		writeCSV(p.out, fig.name+".csv", res.WriteFractionsCSV))
	if err != nil {
		return nil, err
	}
	p.sweeps[fig.name] = res
	if p.first == nil {
		p.first = res
	}
	return res, nil
}

// fractionChart renders the schedulable-fraction curves as an ASCII chart:
// the figure itself.
func fractionChart(res *experiment.SchedResult) (string, error) {
	var series []plot.Series
	for _, s := range res.FractionSeries() {
		series = append(series, plot.Series{Name: s.Name, X: s.X, Y: s.Y})
	}
	return plot.Render(plot.Config{
		Title: fmt.Sprintf("Fraction of schedulable tasksets (platform %s, %s)", res.Platform.Name, res.Dist),
		YMin:  0, YMax: 1,
		XLabel: "taskset reference utilization", YLabel: "schedulable fraction",
	}, series...)
}

// fig4 writes Figure 4's running times, measured during the fig2a sweep
// (same workloads).
func (p *paper) fig4(ctx context.Context) error {
	fig2a, err := p.sweep(ctx, figures[0])
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "fig4 (running times)...")
	return errors.Join(
		writeFile(p.out, "fig4.txt", "# Figure 4: average running time per taskset (seconds)\n"+fig2a.RuntimeTable()),
		writeCSV(p.out, "fig4.csv", fig2a.WriteRuntimesCSV))
}

// tables writes Tables 1 and 2: the regulator's handler costs at 24 VCPUs
// and the scheduler's at 24 and 96, over a 5000 ms horizon.
func (p *paper) tables(ctx context.Context) error {
	const horizonMs = 5000
	fmt.Fprintln(os.Stderr, "tables 1-2 (overheads)...")
	var tables strings.Builder
	for i, vcpus := range []int{24, 96} {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := experiment.RunOverhead(experiment.OverheadConfig{
			VCPUs: vcpus, HorizonMs: horizonMs, Seed: p.seed,
		})
		if err != nil {
			return err
		}
		if i == 0 {
			fmt.Fprintf(&tables, "%s  (%d throttle events, %d BW replenishments over %d ms)\n\nTable 2: Scheduler's overhead (us)\n",
				res.Table1(), res.ThrottleEvents, res.BWReplenishments, horizonMs)
			if err := writeCSV(p.out, "table1.csv", res.WriteCSV); err != nil {
				return err
			}
		}
		tables.WriteString(res.Table2Row())
	}
	return writeFile(p.out, "tables12.txt", tables.String())
}

// sec33 writes the Section 3.3 isolation study and every benchmark's
// slowdown profile.
func (p *paper) sec33(context.Context) error {
	fmt.Fprintln(os.Stderr, "section 3.3 (isolation)...")
	iso, err := experiment.RunIsolation(experiment.IsolationConfig{Ops: 150000, Seed: p.seed})
	if err != nil {
		return err
	}
	return errors.Join(
		writeFile(p.out, "sec33.txt", iso.Table()),
		writeCSV(p.out, "sec33.csv", iso.WriteCSV),
		writeFile(p.out, "sec33-profiles.txt", slowdownProfiles(model.PlatformA)))
}

// slowdownProfiles renders each PARSEC benchmark's slowdown profile s(c,b)
// on platform p at every second cache and bandwidth partition count, and
// its worst case s^max: the WCET inputs the allocators consume. The
// profiles are analytic, so the text is deterministic.
func slowdownProfiles(p model.Platform) string {
	var b strings.Builder
	for i, bm := range parsec.All {
		if i > 0 {
			b.WriteByte('\n')
		}
		prof := bm.Profile(p)
		fmt.Fprintf(&b, "slowdown profile s(c,b) for %s on platform %s (rows: cache c, cols: BW b)\n", bm.Name, p.Name)
		fmt.Fprintf(&b, "%4s", "c\\b")
		for bw := p.Bmin; bw <= p.B; bw += 2 {
			fmt.Fprintf(&b, " %5d", bw)
		}
		b.WriteByte('\n')
		for c := p.Cmin; c <= p.C; c += 2 {
			fmt.Fprintf(&b, "%4d", c)
			for bw := p.Bmin; bw <= p.B; bw += 2 {
				fmt.Fprintf(&b, " %5.2f", prof.At(c, bw))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "max slowdown s^max (cache disabled, worst BW): %.2f\n", bm.MaxSlowdown(p))
	}
	return b.String()
}

// vmCount writes the VM-count study (repository addition).
func (p *paper) vmCount(context.Context) error {
	fmt.Fprintln(os.Stderr, "vm-count study...")
	vmc, err := experiment.RunVMCount(experiment.VMCountConfig{
		Platform: model.PlatformA, Util: 1.0, Seed: p.seed, Parallel: p.parallel,
	})
	if err != nil {
		return err
	}
	return writeFile(p.out, "vmcount.txt", vmc.Table())
}

// partition writes the partition-count sweep (repository addition).
func (p *paper) partition(context.Context) error {
	fmt.Fprintln(os.Stderr, "partition sweep...")
	res, err := experiment.RunPartitionSweep(experiment.PartitionSweepConfig{Seed: p.seed, Parallel: p.parallel})
	if err != nil {
		return err
	}
	return writeFile(p.out, "partition-sweep.txt", res.Table())
}

// regPeriod writes the regulation-period sweep (repository addition).
func (p *paper) regPeriod(context.Context) error {
	fmt.Fprintln(os.Stderr, "regulation-period sweep...")
	res, err := experiment.RunRegPeriodSweep(experiment.RegPeriodSweepConfig{Seed: p.seed})
	if err != nil {
		return err
	}
	return writeFile(p.out, "regperiod-sweep.txt", experiment.RegPeriodTable(res))
}

// online writes the online admission study (repository addition).
func (p *paper) online(context.Context) error {
	fmt.Fprintln(os.Stderr, "online admission study...")
	res, err := experiment.RunOnline(experiment.OnlineConfig{Seed: p.seed, Parallel: p.parallel})
	if err != nil {
		return err
	}
	return writeFile(p.out, "online.txt", res.Table())
}

// runViaServer submits the selected figure sweeps to a vc2m-server daemon,
// waits for each, and writes the fetched report documents under -out.
// Submission is concurrent — the daemon's worker pool sets the
// parallelism — and an interrupt cancels the waits, leaving the daemon to
// finish (or time out) the sweeps on its own.
func (p *paper) runViaServer(ctx context.Context, sel []stage) error {
	c := client.New(p.serverURL, nil)
	ids := make([]string, len(sel))
	for i, st := range sel {
		sub, err := c.Submit(ctx, server.SubmitRequest{
			Kind:  server.KindSweep,
			Title: fmt.Sprintf("vc2m-paper %s sweep (seed %d)", st.name, p.seed),
			Seed:  p.seed,
			Sweep: &server.SweepSpec{
				Platform:         st.fig.plat.Name,
				Dist:             st.fig.dist.String(),
				UtilStep:         p.step,
				TasksetsPerPoint: p.tasksets,
				Parallel:         p.parallel,
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s submitted as %s\n", st.name, sub.ID)
		ids[i] = sub.ID
	}
	var firstErr error
	for i, st := range sel {
		id := ids[i]
		status, err := c.Wait(ctx, id)
		if err != nil {
			return err
		}
		if status.State != server.StateDone {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s (%s) %s: %s", st.name, id, status.State, status.Error)
			}
			continue
		}
		data, err := c.ReportBytes(ctx, id)
		if err != nil {
			return err
		}
		path := filepath.Join(p.out, st.name+".report.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	if firstErr != nil {
		return firstErr
	}
	fmt.Fprintf(os.Stderr, "done; reports in %s/ (inspect with vc2m-report)\n", p.out)
	return nil
}

func writeFile(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

func writeCSV(dir, name string, write func(w io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
