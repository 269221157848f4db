package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vc2m/internal/alloc"
	"vc2m/internal/experiment"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// sweepGrid is a schedulability sweep's x-axis and depth.
type sweepGrid struct {
	min, max, step float64
	tasksets       int
}

// paperConfig is the Fig. 2a sweep as vc2m-paper runs it: Platform A,
// uniform utilizations, every taskset through the five paper solutions,
// Parallel = nproc.
func paperConfig(seed int64, g sweepGrid) experiment.SchedConfig {
	return experiment.SchedConfig{
		Platform:         model.PlatformA,
		Dist:             workload.Uniform,
		UtilMin:          g.min,
		UtilMax:          g.max,
		UtilStep:         g.step,
		TasksetsPerPoint: g.tasksets,
		Seed:             seed,
		Parallel:         runtime.NumCPU(),
	}
}

// sweepRound is one measured sweep.
type sweepRound struct {
	traced   bool
	wall     time.Duration   // calibration excluded
	latency  []time.Duration // per taskset through all five solutions, scaled by its point's machine speed
	tasksets int
	retained int64 // live-heap growth while the result and its decisions are held
	alloc    uint64
	gc       uint32
	scaled   time.Duration // wall, each point scaled by its machine speed (calibrate.go)
	res      *experiment.SchedResult
	prov     *provenance.Recorder // one decision per (taskset, solution), as vc2m-paper -report-out records
	csv      []byte               // the fraction table as vc2m-paper writes fig2a.csv
}

// sweepSetup is the paper-sweep set-up: a small sweep that warms the
// allocators before anything is timed.
func (b *bench) sweepSetup() (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	if _, err := experiment.RunSchedulability(paperConfig(b.seed, b.size.warmGrid)); err != nil {
		return 0, fmt.Errorf("warm-up sweep: %w", err)
	}
	return time.Since(start), nil
}

// sweepRound runs one sweep. Every solution call is timed, to give each
// taskset's latency, and with tr non-nil also recorded as a span. A sweep
// is long enough for the machine's speed to drift within it, so the
// machine is calibrated after every utilization point, while the sweep's
// workers are idle, and each point's time and latencies are scaled by the
// speed around that point; calibration time is not sweep time.
func (b *bench) sweepRound(tr *tracer) (*sweepRound, error) {
	cfg := paperConfig(b.seed, b.size.grid)
	timer := newSweepTimer(tr, cfg)
	cfg.Solutions = timer.solutions()
	r := &sweepRound{traced: tr != nil, prov: provenance.New()}
	cfg.Provenance, cfg.ProvenanceLabel = r.prov, "fig2a"

	prevCal := calibrate()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	pointStart, scaledFrom := t0, 0
	var calibrating time.Duration
	cfg.Progress = func(int, int) {
		pointEnd := time.Now()
		cal := calibrate()
		calibrating += time.Since(pointEnd)
		sp := speed(prevCal, cal)
		r.scaled += time.Duration(float64(pointEnd.Sub(pointStart)) * sp)
		scaledFrom = timer.scale(scaledFrom, sp)
		prevCal, pointStart = cal, time.Now()
	}
	res, err := experiment.RunSchedulability(cfg)
	r.wall = time.Since(t0) - calibrating
	if err != nil {
		return nil, err
	}
	r.res = res
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.retained = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.gc = m1.NumGC - m0.NumGC - 1 // the forced collection above is not the workload's
	r.tasksets = res.Tasksets
	r.latency = timer.latency
	if len(r.latency) != r.tasksets {
		return nil, fmt.Errorf("timed %d tasksets of %d", len(r.latency), r.tasksets)
	}
	var buf bytes.Buffer
	if err := res.WriteFractionsCSV(&buf); err != nil {
		return nil, err
	}
	r.csv = buf.Bytes()
	return r, nil
}

// sweepTimer times the paper solutions of one sweep. A taskset's latency
// runs from the start of its first solution call to the end of its last;
// RunSchedulability makes the five calls back to back on one worker.
type sweepTimer struct {
	tr *tracer
	n  atomic.Int64 // span request IDs

	mu      sync.Mutex
	open    []openTaskset   // guarded by mu; one slot per worker
	latency []time.Duration // guarded by mu
}

type openTaskset struct {
	sys   *model.System
	start time.Time
}

// newSweepTimer sizes everything the timer records up front, so the
// sweep's retained heap is the result's alone.
func newSweepTimer(tr *tracer, cfg experiment.SchedConfig) *sweepTimer {
	points := int(math.Floor((cfg.UtilMax-cfg.UtilMin)/cfg.UtilStep+1e-9)) + 1
	return &sweepTimer{
		tr:      tr,
		open:    make([]openTaskset, cfg.Parallel),
		latency: make([]time.Duration, 0, points*cfg.TasksetsPerPoint),
	}
}

// scale multiplies the latencies recorded from index from on by sp and
// returns the index the next call starts from.
func (t *sweepTimer) scale(from int, sp float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := from; i < len(t.latency); i++ {
		t.latency[i] = time.Duration(float64(t.latency[i]) * sp)
	}
	return len(t.latency)
}

// record notes one solution call on sys; the last call closes the
// taskset's latency.
func (t *sweepTimer) record(sys *model.System, start, end time.Time, last bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	free := -1
	for i := range t.open {
		switch t.open[i].sys {
		case sys:
			if last {
				t.latency = append(t.latency, end.Sub(t.open[i].start))
				t.open[i] = openTaskset{}
			}
			return
		case nil:
			free = i
		}
	}
	t.open[free] = openTaskset{sys: sys, start: start}
}

func (t *sweepTimer) solutions() []alloc.Allocator {
	sols := alloc.PaperSolutions()
	out := make([]alloc.Allocator, len(sols))
	for i, sol := range sols {
		out[i] = timedSolution{Allocator: sol, span: "experiment.alloc." + slug(sol.Name()), last: i == len(sols)-1, t: t}
	}
	return out
}

// timedSolution is one paper solution under a sweepTimer.
type timedSolution struct {
	alloc.Allocator
	span string
	last bool // the last of the five calls a taskset gets
	t    *sweepTimer
}

func (s timedSolution) Allocate(sys *model.System, rng *rngutil.RNG) (*model.Allocation, error) {
	var rt *reqTrace
	if s.t.tr != nil {
		rt = s.t.tr.request(fmt.Sprintf("a%d", s.t.n.Add(1)))
	}
	start := time.Now()
	sp := rt.begin(s.span, -1)
	a, err := s.Allocator.Allocate(sys, rng)
	rt.end(sp)
	end := time.Now()
	rt.commit()
	s.t.record(sys, start, end, s.last)
	return a, err
}

// slug turns a solution's legend name into a metric-name suffix:
// "Heuristic (existing CSA)" becomes "heuristic-existing-csa".
func slug(name string) string {
	var sb strings.Builder
	dash := false
	for _, c := range strings.ToLower(name) {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			if dash && sb.Len() > 0 {
				sb.WriteByte('-')
			}
			sb.WriteRune(c)
			dash = false
		} else {
			dash = true
		}
	}
	return sb.String()
}

// replaySweep re-executes the sweep of cfg taskset by taskset, drawing the
// same RNG streams experiment.RunSchedulability draws, with a span around
// generation and around each solution; the heuristic solutions are
// unrolled into their VM and hypervisor levels. It returns the
// schedulable fraction per solution and utilization point.
func replaySweep(cfg experiment.SchedConfig, tr *tracer, rec *metrics.Recorder) ([][]float64, error) {
	sols := alloc.PaperSolutions()
	for _, sol := range sols {
		if _, ok := sol.(*alloc.Heuristic); !ok {
			sol.(alloc.MetricsSetter).SetMetrics(rec)
		}
	}
	n := int(math.Floor((cfg.UtilMax-cfg.UtilMin)/cfg.UtilStep + 1e-9))
	fractions := make([][]float64, len(sols))
	root := rngutil.New(cfg.Seed)
	for pi := 0; pi <= n; pi++ {
		u := cfg.UtilMin + float64(pi)*cfg.UtilStep
		type job struct {
			gen   *rngutil.RNG
			seeds []int64
			oks   []bool
			err   error
		}
		jobs := make([]job, cfg.TasksetsPerPoint)
		for ts := range jobs {
			gen, allocRNG := root.Split(), root.Split()
			seeds := make([]int64, len(sols))
			for si := range seeds {
				seeds[si] = allocRNG.Int63()
			}
			jobs[ts] = job{gen: gen, seeds: seeds, oks: make([]bool, len(sols))}
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < cfg.Parallel; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ts := int(next.Add(1) - 1)
					if ts >= len(jobs) {
						return
					}
					j := &jobs[ts]
					j.err = replayTaskset(tr.request(fmt.Sprintf("u%.2f/ts%d", u, ts)), cfg, u, sols, j.gen, j.seeds, j.oks, rec)
				}
			}()
		}
		wg.Wait()
		for si := range sols {
			ok := 0
			for ts := range jobs {
				if jobs[ts].err != nil {
					return nil, jobs[ts].err
				}
				if jobs[ts].oks[si] {
					ok++
				}
			}
			fractions[si] = append(fractions[si], float64(ok)/float64(cfg.TasksetsPerPoint))
		}
	}
	return fractions, nil
}

// replayTaskset generates one taskset and runs it through every solution,
// recording each verdict in oks.
func replayTaskset(rt *reqTrace, cfg experiment.SchedConfig, u float64, sols []alloc.Allocator,
	gen *rngutil.RNG, seeds []int64, oks []bool, rec *metrics.Recorder) error {
	root := rt.begin("replay", -1)
	sp := rt.begin("workload.generate", root)
	sys, err := workload.Generate(workload.Config{Platform: cfg.Platform, TargetRefUtil: u, Dist: cfg.Dist}, gen)
	rt.end(sp)
	if err != nil {
		return err
	}
	var derived []vmLevel
	for si, sol := range sols {
		sp := rt.begin("experiment.alloc."+slug(sol.Name()), root)
		if h, ok := sol.(*alloc.Heuristic); ok {
			_, vl, err := allocateHeuristic(rt, sp, sys, h.Mode, seeds[si], rec, nil)
			oks[si] = err == nil
			derived = append(derived, vl)
		} else {
			_, err := sol.Allocate(sys, rngutil.New(seeds[si]))
			oks[si] = err == nil
		}
		rt.end(sp)
	}
	rt.end(root)
	for _, vl := range derived {
		vl.rederive(rt, sys.Platform)
	}
	rt.commit()
	return nil
}
