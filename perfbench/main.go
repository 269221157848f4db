// Command perfbench is vC2M's end-to-end benchmark. One invocation runs
// one workload for a fixed time and prints every metric by name and unit,
// then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The serve-* workloads drive an in-process internal/server through the
// client package over loopback HTTP as a closed loop; paper-sweep runs the
// Fig. 2a schedulability sweep through experiment.RunSchedulability as
// vc2m-paper does. Every output is checked (see README.md); a failed check
// fails its request and makes the command exit 1.
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// run also records spans around the client calls, then replays a fixed
// set of requests in-process through the pipeline's layer functions and
// reports per-layer times and counts instead.
//
// Run it from the repository root with perfbench/run.sh, which builds it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vc2m/internal/model"
)

// Seeds. The default seed is vc2m-paper's, so paper-sweep's output can be
// checked against the committed results/fig2a.csv. Performance claims are
// re-checked on the held-out seed, which was not used while the benchmark
// was tuned.
const (
	defaultSeed  = 1
	heldOutSeed  = 97
	runLimit     = 170 * time.Second // a run that takes longer is aborted
	maxReportErr = 5                 // failures printed per run
)

// size scales a run. fullSize is what the command runs; the tests use
// smokeSize.
type size struct {
	rounds   int       // serve rounds per run, each against a fresh server
	warmup   int       // requests per serve round before measuring
	sample   int       // reports per serve round compared with the facade
	replay   int       // serve requests replayed by the traced run
	grid     sweepGrid // the measured sweep
	warmGrid sweepGrid // the set-up sweep
}

var (
	fullSize = size{rounds: 10, warmup: 4, sample: 4, replay: 300,
		grid: sweepGrid{0.1, 2.0, 0.05, 50}, warmGrid: sweepGrid{0.5, 2.0, 0.5, 2}}
	smokeSize = size{rounds: 2, warmup: 2, sample: 2, replay: 4,
		grid: sweepGrid{0.5, 1.5, 0.5, 3}, warmGrid: sweepGrid{1.0, 1.0, 0.5, 1}}
)

type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root, holding results/fig2a.csv
	out      string // where the traced run writes its spans
	size     size

	next   atomic.Int64                // next measured request index
	bases  []*churnBase                // the last serve-churn round's base runs
	mu     sync.Mutex                  // guards allocs
	allocs map[int64]*model.Allocation // in-process churn base allocations by seed
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	b := &bench{size: fullSize}
	fs.StringVar(&b.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&b.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for re-checking claims: %d)", heldOutSeed))
	secs := fs.Int("seconds", 10, "measured time per run")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&b.root, "root", ".", "repository root")
	fs.StringVar(&b.out, "out", filepath.Join(".bench_build", "spans"), "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b.seconds = time.Duration(*secs) * time.Second
	b.trace = *traced == 1
	if *secs < 1 || (*traced != 0 && *traced != 1) || !known(b.workload) {
		fmt.Fprintln(stderr, "perfbench: need -workload one of", strings.Join(workloadNames, ", "), "-seconds >= 1, -trace 0|1")
		return 2
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	stamp := machineStamp(b.seed)
	printTable(stdout, b, res, stamp)
	line, err := res.json(b.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}

func known(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	errs              []string
	values            map[string]float64
	notes             map[string]string // sample counts and the like, for the table
	spans             *tracer
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < maxReportErr {
		r.errs = append(r.errs, err.Error())
	}
}

// metricDef is a metric's name and unit as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// json renders the result line: the end-to-end metrics, or with trace the
// per-layer ones. Every listed metric is present; a layer the workload
// never calls reads 0.
func (r *result) json(trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		ms[d.name] = metric{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
}

func (b *bench) run(ctx context.Context) (*result, error) {
	var res *result
	var err error
	if b.workload == paperSweep {
		res, err = b.runSweep()
	} else {
		res, err = b.runServe(ctx, serveWorkloads[b.workload])
	}
	if err != nil {
		return nil, err
	}
	if b.trace && res.spans != nil {
		path := filepath.Join(b.out, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		if err := res.spans.write(path, machineStamp(b.seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.notes["spans"] = path
	}
	return res, nil
}

// machineStamp identifies where a number came from.
func machineStamp(seed int64) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range info.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTable prints the machine stamp, every metric by name with its unit,
// and the first failures.
func printTable(w io.Writer, b *bench, r *result, stamp map[string]any) {
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "perfbench %s (trace %v):", b.workload, b.trace)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, stamp[k])
	}
	fmt.Fprintln(w)
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-56s %14.6g %-10s %d of %d failed\n", "error_rate", rate, "ratio", r.failed, r.attempted)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-56s %14.6g %-10s %s\n", d.name, r.values[d.name], d.unit, r.notes[d.name])
	}
	if p := r.notes["spans"]; p != "" {
		fmt.Fprintln(w, "  spans written to", p)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "  FAILED:", e)
	}
}
