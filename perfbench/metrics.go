package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vc2m/internal/alloc"
	"vc2m/internal/csa"
	"vc2m/internal/hypersim"
	"vc2m/internal/metrics"
)

// endToEnd are the metrics a user of the service or of the paper sweep
// sees, measured with tracing off. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"runs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"retained_kib_per_run", "KiB"},
	{"tasksets_per_s", "1/s"},
	{"setup_s", "s"},
}

// countNames are the layers' work counters, reported per replayed
// request. They repeat exactly across runs at one seed.
var countNames = []string{
	alloc.MetricKMeansIters,
	csa.MetricSBFEvals,
	csa.MetricMinBudgetCalls,
	csa.MetricMinBudgetIters,
	csa.MetricDBFEvals,
	alloc.MetricMTried,
	alloc.MetricPermutations,
	alloc.MetricPhase2Attempts,
	hypersim.MetricSchedInvocations,
	hypersim.MetricContextSwitches,
}

// perLayer are the traced run's metrics. BENCHMARK.json lists the same
// names; README.md maps each to the end-to-end metric it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.submit_ms", "ms"},
		{"server.wait_ms", "ms"},
		{"server.fetch_ms", "ms"},
		{"server.overhead_share", "ratio"},
		{"workload.generate_ms", "ms"},
		{"alloc.vmlevel_ms", "ms"},
		{"alloc.vmlevel_self_ms", "ms"},
		{"csa.derive_ms", "ms"},
		{"alloc.hyper_ms", "ms"},
		{"alloc.phase2.grant_ratio", "ratio"},
		{"alloc.incremental_ms", "ms"},
		{"alloc.incremental.repack_ratio", "ratio"},
		{"hypersim.run_ms", "ms"},
		{"report.build_ms", "ms"},
		{"report.marshal_ms", "ms"},
		{"report.kib", "KiB"},
	}
	for _, sol := range alloc.PaperSolutions() {
		defs = append(defs, metricDef{"experiment.alloc_ms." + slug(sol.Name()), "ms"})
	}
	for _, c := range countNames {
		defs = append(defs, metricDef{c, "count/req"})
	}
	return append(defs,
		metricDef{"process.alloc_kib_per_run", "KiB"},
		metricDef{"process.gc_cycles", "count/run"},
		metricDef{"replay.total_ms", "ms"},
		metricDef{"replay.remainder_ms", "ms"},
		metricDef{"trace.overhead_ms", "ms"},
	)
}()

// runServe measures a serving workload over size.rounds rounds. The traced
// run alternates untraced and traced rounds, so the difference between
// their latencies is the tracing overhead, and then replays requests
// [0, size.replay) in-process for the per-layer breakdown.
func (b *bench) runServe(ctx context.Context, w serveWorkload) (*result, error) {
	res := newResult()
	var clientTr *tracer
	if b.trace {
		clientTr = newTracer()
	}
	dur := b.seconds / time.Duration(b.size.rounds)
	var rounds []*serveRound
	for n := 0; n < b.size.rounds; n++ {
		var tr *tracer
		if n%2 == 1 {
			tr = clientTr
		}
		r, err := b.serveRound(ctx, w, n, dur, tr)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, n, err)
		}
		rounds = append(rounds, r)
	}

	// Every figure is the median over the rounds of that round's value, so
	// a round disturbed by something else on the machine does not set it;
	// timed figures are scaled by the round's machine speed (calibrate.go).
	var lat, latTraced, latPlain, setups, rates, p50s, p99s, kibs, speeds, rawRates []float64
	var wall time.Duration
	var allocated uint64
	var gcs uint32
	for _, r := range rounds {
		var rl []float64
		for _, s := range r.runs {
			res.attempted++
			if s.err != nil {
				res.fail(s.err)
				continue
			}
			rl = append(rl, ms(s.latency))
		}
		if len(rl) == 0 {
			continue
		}
		lat = append(lat, rl...)
		if r.traced {
			latTraced = append(latTraced, rl...)
		} else {
			latPlain = append(latPlain, rl...)
		}
		rate := float64(len(rl)) / r.wall.Seconds()
		setups = append(setups, r.setup.Seconds()*r.speed)
		rates = append(rates, rate/r.speed)
		rawRates = append(rawRates, rate)
		speeds = append(speeds, r.speed)
		p50s = append(p50s, median(rl)*r.speed)
		p99s = append(p99s, quantile(rl, 0.99)*r.speed)
		kibs = append(kibs, float64(r.retained)/float64(len(rl))/1024)
		wall += r.wall
		allocated += r.alloc
		gcs += r.gc
	}
	runs := len(lat)
	if runs == 0 {
		return nil, fmt.Errorf("%s: no request completed (%d attempted)", w.name, res.attempted)
	}
	v := res.values
	v["runs_per_s"] = median(rates)
	v["tasksets_per_s"] = v["runs_per_s"] // a served run analyzes one taskset
	v["latency_p50_ms"] = median(p50s)
	v["latency_p99_ms"] = median(p99s)
	v["retained_kib_per_run"] = median(kibs)
	v["setup_s"] = median(setups)
	res.notes["runs_per_s"] = fmt.Sprintf("median of %d rounds; %d runs in %.2fs, %d clients; unscaled %.4g at speed %.3f",
		len(rates), runs, wall.Seconds(), clients, median(rawRates), median(speeds))
	res.notes["latency_p50_ms"] = fmt.Sprintf("median of %d rounds' p50", len(p50s))
	res.notes["latency_p99_ms"] = fmt.Sprintf("median of %d rounds' p99; n=%d", len(p99s), runs)
	res.notes["retained_kib_per_run"] = fmt.Sprintf("median of %d rounds", len(kibs))
	res.notes["setup_s"] = fmt.Sprintf("median of %d rounds", len(setups))
	if !b.trace {
		return res, nil
	}

	v["process.alloc_kib_per_run"] = float64(allocated) / float64(runs) / 1024
	v["process.gc_cycles"] = float64(gcs) / float64(runs)
	v["trace.overhead_ms"] = median(latTraced) - median(latPlain)
	for name, call := range map[string]string{
		"server.submit_ms": "client.submit",
		"server.wait_ms":   "client.wait",
		"server.fetch_ms":  "client.fetch",
	} {
		v[name] = median(clientTr.durations(call))
		res.notes[name] = "p50 of " + call + " spans in traced rounds"
	}
	res.notes["trace.overhead_ms"] = "p50 latency, traced rounds minus untraced rounds"
	res.notes["process.alloc_kib_per_run"] = "whole process, measured phase"
	res.notes["process.gc_cycles"] = res.notes["process.alloc_kib_per_run"]

	rtr := newTracer()
	rec := metrics.New()
	p := &replayer{w: w, seed: b.seed, bases: b.bases, tr: rtr, rec: rec}
	for _, cb := range b.bases {
		a, err := b.baseAlloc(cb)
		if err != nil {
			return nil, err
		}
		p.allocs = append(p.allocs, a)
	}
	replayed, err := p.replay(b.size.replay)
	if err != nil {
		return nil, err
	}
	if err := checkReplay(replayed, rounds); err != nil {
		res.fail(err)
	}
	var kib float64
	for _, r := range replayed {
		kib += float64(r.bytes) / 1024
	}
	v["report.kib"] = kib / float64(len(replayed))
	if err := layerValues(v, rtr, rec, len(replayed)); err != nil {
		return nil, err
	}
	v["server.overhead_share"] = 1 - v["replay.total_ms"]/mean(lat)
	res.notes["server.overhead_share"] = fmt.Sprintf("replay %.3gms of a %.3gms mean round trip", v["replay.total_ms"], mean(lat))
	noteReplay(res, len(replayed), "requests")
	rtr.reqs = append(rtr.reqs, clientTr.reqs...)
	res.spans = rtr
	return res, nil
}

// runSweep measures whole Fig. 2a sweeps until the measured time is used
// up. Every sweep of a run must produce the same fraction table, and at
// the default seed the table must equal the committed results/fig2a.csv.
func (b *bench) runSweep() (*result, error) {
	res := newResult()
	var clientTr *tracer
	minRounds := 1
	if b.trace {
		clientTr = newTracer()
		minRounds = 2
	}
	var ref []byte
	if b.seed == defaultSeed && b.size.grid == fullSize.grid {
		var err error
		if ref, err = os.ReadFile(filepath.Join(b.root, "results", "fig2a.csv")); err != nil {
			return nil, err
		}
	}
	var setups []float64
	calBefore := calibrate()
	for k := 0; k < sweepSetups; k++ {
		d, err := b.sweepSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	setupSpeed := speed(calBefore, calibrate())

	// Whole sweeps only: another sweep starts while at least half of it
	// fits in the measured time.
	var rounds []*sweepRound
	var wall time.Duration
	for n := 0; n < minRounds || wall+wall/time.Duration(2*n) < b.seconds; n++ {
		var tr *tracer
		if n%2 == 1 {
			tr = clientTr
		}
		r, err := b.sweepRound(tr)
		if err != nil {
			return nil, fmt.Errorf("sweep %d: %w", n, err)
		}
		rounds = append(rounds, r)
		wall += r.wall
	}

	var lat, latTraced, latPlain, rates, p50s, p99s, kibs, speeds, rawRates []float64
	var allocated uint64
	var gcs uint32
	for n, r := range rounds {
		res.attempted += r.tasksets
		switch {
		case !bytes.Equal(r.csv, rounds[0].csv):
			res.failN(fmt.Errorf("sweep %d's fraction table differs from sweep 0's at the same seed", n), r.tasksets)
		case ref != nil && !bytes.Equal(r.csv, ref):
			res.failN(fmt.Errorf("sweep %d's fraction table differs from results/fig2a.csv", n), r.tasksets)
		}
		allocated += r.alloc
		gcs += r.gc
		var rl []float64
		for _, d := range r.latency {
			rl = append(rl, ms(d))
		}
		lat = append(lat, rl...)
		if r.traced {
			latTraced = append(latTraced, rl...)
		} else {
			latPlain = append(latPlain, rl...)
		}
		rates = append(rates, float64(r.tasksets)/r.scaled.Seconds())
		rawRates = append(rawRates, float64(r.tasksets)/r.wall.Seconds())
		speeds = append(speeds, r.wall.Seconds()/r.scaled.Seconds())
		p50s = append(p50s, median(rl))
		p99s = append(p99s, quantile(rl, 0.99))
		kibs = append(kibs, float64(r.retained)/1024)
	}
	// As for the serve workloads, each figure is the median over the
	// sweeps of that sweep's value, timed ones scaled by machine speed.
	v := res.values
	v["tasksets_per_s"] = median(rates)
	v["runs_per_s"] = v["tasksets_per_s"] / float64(rounds[0].tasksets) // a sweep is one run, as a KindSweep submission is
	v["latency_p50_ms"] = median(p50s)
	v["latency_p99_ms"] = median(p99s)
	v["retained_kib_per_run"] = median(kibs)
	v["setup_s"] = median(setups) * setupSpeed
	res.notes["runs_per_s"] = fmt.Sprintf("median of %d sweeps of %d tasksets; %.2fs; unscaled %.4g tasksets/s at speed %.3f",
		len(rounds), rounds[0].tasksets, wall.Seconds(), median(rawRates), median(speeds))
	res.notes["retained_kib_per_run"] = fmt.Sprintf("result and decision trail, median of %d sweeps", len(kibs))
	res.notes["latency_p50_ms"] = fmt.Sprintf("per taskset through the five solutions, median of %d sweeps; n=%d", len(rounds), len(lat))
	res.notes["latency_p99_ms"] = res.notes["latency_p50_ms"]
	res.notes["setup_s"] = fmt.Sprintf("median of %d warm-up sweeps", len(setups))
	if ref != nil {
		res.notes["tasksets_per_s"] = "fraction table checked against results/fig2a.csv"
	}
	if !b.trace {
		return res, nil
	}

	v["process.alloc_kib_per_run"] = float64(allocated) / float64(len(rounds)) / 1024
	v["process.gc_cycles"] = float64(gcs) / float64(len(rounds))
	v["trace.overhead_ms"] = median(latTraced) - median(latPlain)
	res.notes["trace.overhead_ms"] = "p50 taskset latency, traced sweeps minus untraced sweeps"
	res.notes["process.alloc_kib_per_run"] = "whole process, per sweep"
	res.notes["process.gc_cycles"] = res.notes["process.alloc_kib_per_run"]
	rtr := newTracer()
	rec := metrics.New()
	cfg := paperConfig(b.seed, b.size.grid)
	fractions, err := replaySweep(cfg, rtr, rec)
	if err != nil {
		return nil, err
	}
	for si, s := range rounds[0].res.Series {
		for pi, p := range s.Points {
			if fractions[si][pi] != p.Fraction {
				res.fail(fmt.Errorf("replayed sweep differs from the measured one: %s at util %.2f", s.Solution, p.Util))
			}
		}
	}
	n := rounds[0].tasksets
	if err := layerValues(v, rtr, rec, n); err != nil {
		return nil, err
	}
	noteReplay(res, n, "tasksets")
	rtr.reqs = append(rtr.reqs, clientTr.reqs...)
	res.spans = rtr
	return res, nil
}

// sweepSetups is how many times paper-sweep sets up per run.
const sweepSetups = 5

func (r *result) failN(err error, n int) {
	r.fail(err)
	r.failed += n - 1
}

// layerValues turns the replay's spans and counters into per-layer
// metrics, each a mean per replayed request (per event for the
// incremental allocator).
func layerValues(v map[string]float64, tr *tracer, rec *metrics.Recorder, n int) error {
	lt, err := tr.layerTimes()
	if err != nil {
		return err
	}
	// A layer the workload never called has no spans and no value here.
	set := func(metric, span string, self bool) {
		if l := lt[span]; l != nil {
			d := l.total
			if self {
				d = l.self
			}
			v[metric] = ms(d) / float64(n)
		}
	}
	set("replay.total_ms", "replay", false)
	set("replay.remainder_ms", "replay", true)
	set("workload.generate_ms", "workload.generate", false)
	set("alloc.vmlevel_ms", "alloc.vmlevel", false)
	set("alloc.vmlevel_self_ms", "alloc.vmlevel", true)
	set("csa.derive_ms", "csa.derive", false)
	set("alloc.hyper_ms", "alloc.hyper", false)
	set("hypersim.run_ms", "hypersim.run", false)
	set("report.build_ms", "report.build", false)
	set("report.marshal_ms", "report.marshal", false)
	if inc := lt["alloc.incremental"]; inc != nil {
		v["alloc.incremental_ms"] = ms(inc.total) / float64(inc.count)
	}
	for _, sol := range alloc.PaperSolutions() {
		s := slug(sol.Name())
		set("experiment.alloc_ms."+s, "experiment.alloc."+s, false)
	}
	for _, c := range countNames {
		v[c] = float64(rec.Counter(c)) / float64(n)
	}
	if a := rec.Counter(alloc.MetricPhase2Attempts); a > 0 {
		v["alloc.phase2.grant_ratio"] = float64(rec.Counter(alloc.MetricPhase2Grants)) / float64(a)
	}
	if c := rec.Counter(alloc.MetricIncrementalCalls); c > 0 {
		v["alloc.incremental.repack_ratio"] = float64(rec.Counter(alloc.MetricIncrementalRepacks)) / float64(c)
	}
	return nil
}

func noteReplay(res *result, n int, what string) {
	note := fmt.Sprintf("mean over %d replayed %s", n, what)
	for _, d := range perLayer {
		if _, ok := res.notes[d.name]; ok {
			continue
		}
		if _, ok := res.values[d.name]; ok {
			res.notes[d.name] = note
		} else {
			res.notes[d.name] = "not called by this workload"
		}
	}
}
