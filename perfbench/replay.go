package main

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"vc2m/internal/alloc"
	"vc2m/internal/csa"
	"vc2m/internal/hypersim"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/rngutil"
	"vc2m/internal/timeunit"
	"vc2m/internal/trace"
	"vc2m/internal/workload"
)

// replayer re-executes requests in-process through the layer functions the
// server's pipeline calls, with a span around each call, the same
// provenance recorder the server passes, and a metrics recorder for the
// layers' work counts.
//
// CSA derivation runs inside alloc.VMLevel (and inside alloc.Incremental
// for arrivals), where no span can reach it. Once a request's spans are
// closed, csa.ExistingVCPU is run again on each derived VCPU's tasks and
// recorded as a child of the enclosing span: that span's self time is then
// its duration minus the CSA estimate, while the request's total stays the
// pipeline's own time.
type replayer struct {
	w      serveWorkload
	seed   int64
	bases  []*churnBase
	allocs []*model.Allocation // the bases' allocations
	tr     *tracer
	rec    *metrics.Recorder
}

// replayed is one replayed request's report.
type replayed struct {
	crc   uint32
	bytes int
}

// replay runs requests [0, n) on the server's worker count and returns
// each report's checksum and size by request index.
func (p *replayer) replay(n int) (map[int]replayed, error) {
	sums := make([]replayed, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var data []byte
				if p.w.churn {
					data, errs[i] = p.replayChurn(i)
				} else {
					data, errs[i] = p.replayRun(i)
				}
				sums[i] = replayed{crc: crc32.ChecksumIEEE(data), bytes: len(data)}
			}
		}()
	}
	wg.Wait()
	out := make(map[int]replayed, n)
	for i := range sums {
		if errs[i] != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, errs[i])
		}
		out[i] = sums[i]
	}
	return out, nil
}

// replayRun mirrors the server's KindRun path: generate, allocate,
// simulate, build and encode the report.
func (p *replayer) replayRun(i int) ([]byte, error) {
	req := runRequest(p.w, p.seed, i)
	rt := p.tr.request(fmt.Sprintf("q%d", i))
	root := rt.begin("replay", -1)
	sp := rt.begin("workload.generate", root)
	sys, err := workload.Generate(*req.Generate, rngutil.New(req.GenSeed))
	rt.end(sp)
	if err != nil {
		return nil, err
	}
	prov := provenance.New()
	in := report.RunInput{
		Title: fmt.Sprintf("vc2m-server %s run (seed %d)", req.Mode, req.GenSeed),
		Seed:  req.GenSeed, Mode: req.Mode, Platform: sys.Platform, Provenance: prov,
	}
	a, vl, err := allocateHeuristic(rt, root, sys, parseMode(req.Mode), req.Seed, p.rec, prov)
	if err != nil {
		in.Rejection = rejection(err)
	} else {
		in.Allocation = a
		if req.SimulateMs > 0 {
			sp = rt.begin("hypersim.run", root)
			sim, err := hypersim.New(a, hypersim.Config{RecordTrace: true, Metrics: p.rec})
			if err != nil {
				return nil, err
			}
			res := sim.Run(timeunit.FromMillis(req.SimulateMs))
			rt.end(sp)
			in.Sim = res
			if res.Missed > 0 {
				in.Diagnosis = trace.Diagnose(res.Events)
			}
		}
	}
	data, err := buildReport(rt, root, in)
	rt.end(root)
	vl.rederive(rt, sys.Platform)
	rt.commit()
	return data, err
}

// replayChurn mirrors the server's KindChurn path: apply each event to the
// base allocation through the incremental allocator, then build and
// encode the report.
func (p *replayer) replayChurn(i int) ([]byte, error) {
	req := churnRequest(p.w, p.bases, p.seed, i)
	k := i % len(p.bases)
	rt := p.tr.request(fmt.Sprintf("q%d", i))
	root := rt.begin("replay", -1)
	mode := parseMode(req.Mode)
	prov := provenance.New()
	cur := p.allocs[k]
	derived := make([]vmLevel, 0, len(req.Churn.Events))
	for j, ev := range req.Churn.Events {
		sp := rt.begin("alloc.incremental", root)
		res, err := alloc.Incremental(cur, alloc.Delta{Arrivals: ev.Arrivals, Departures: ev.Departures},
			alloc.IncrementalConfig{Mode: mode, Metrics: p.rec, Provenance: prov},
			rngutil.New(req.Seed+int64(j)))
		rt.end(sp)
		if err != nil {
			return nil, fmt.Errorf("churn event %d: %w", j, err)
		}
		cur = res.Allocation
		derived = append(derived, vmLevel{span: sp, mode: mode, vcpus: vcpusOf(cur, ev.Arrivals)})
	}
	data, err := buildReport(rt, root, report.RunInput{
		Title:      fmt.Sprintf("vc2m-server churn run (base %s, seed %d)", p.bases[k].id, req.Seed),
		Seed:       req.Seed,
		Mode:       req.Mode,
		Platform:   cur.Platform,
		Allocation: cur,
		Provenance: prov,
	})
	rt.end(root)
	for _, vl := range derived {
		vl.rederive(rt, cur.Platform)
	}
	rt.commit()
	return data, err
}

func buildReport(rt *reqTrace, parent int, in report.RunInput) ([]byte, error) {
	sp := rt.begin("report.build", parent)
	doc := report.BuildRun(in)
	rt.end(sp)
	sp = rt.begin("report.marshal", parent)
	data, err := report.Marshal(doc)
	rt.end(sp)
	return data, err
}

// vmLevel is what rederive needs of one VM-level stage: its span and the
// VCPUs it derived.
type vmLevel struct {
	span  int
	mode  alloc.CSAMode
	vcpus []*model.VCPU
}

// rederive records the CSA estimate under the VM-level span: existing CSA
// run again on each derived VCPU's tasks, with a provenance recorder as
// the server passes one. Other modes derive no CSA interface.
func (vl vmLevel) rederive(rt *reqTrace, plat model.Platform) {
	if vl.mode != alloc.ExistingCSA {
		return
	}
	for _, v := range vl.vcpus {
		sp := rt.begin("csa.derive", vl.span)
		_, _, _ = csa.ExistingVCPUProv(v.Tasks, v.Index, plat, nil, provenance.New()) // derived once already; only its time is wanted
		rt.end(sp)
	}
}

// vcpusOf returns the allocation's VCPUs that belong to the given VMs.
func vcpusOf(a *model.Allocation, vms []*model.VM) []*model.VCPU {
	ids := map[string]bool{}
	for _, vm := range vms {
		ids[vm.ID] = true
	}
	var out []*model.VCPU
	for _, c := range a.Cores {
		for _, v := range c.VCPUs {
			if ids[v.VM] {
				out = append(out, v)
			}
		}
	}
	return out
}

// allocateHeuristic is vc2m.Allocate for the heuristic solutions, unrolled
// the way alloc.Heuristic.Allocate runs it, so the VM level and the
// hypervisor level each get a span: every VM through alloc.VMLevel, then
// all VCPUs through alloc.HyperLevel, sharing one RNG.
func allocateHeuristic(rt *reqTrace, parent int, sys *model.System, mode alloc.CSAMode, seed int64,
	rec *metrics.Recorder, prov *provenance.Recorder) (*model.Allocation, vmLevel, error) {
	vl := vmLevel{mode: mode}
	if err := sys.Validate(); err != nil {
		return nil, vl, err
	}
	rng := rngutil.New(seed)
	vl.span = rt.begin("alloc.vmlevel", parent)
	for _, vm := range sys.VMs {
		vs, err := alloc.VMLevel(vm, sys.Platform, alloc.VMLevelConfig{Mode: mode, Metrics: rec, Provenance: prov},
			len(vl.vcpus), rng)
		if err != nil {
			rt.end(vl.span)
			return nil, vl, err
		}
		vl.vcpus = append(vl.vcpus, vs...)
	}
	rt.end(vl.span)
	sp := rt.begin("alloc.hyper", parent)
	a, err := alloc.HyperLevel(vl.vcpus, sys.Platform, alloc.HyperConfig{Metrics: rec, Provenance: prov}, rng)
	rt.end(sp)
	if err != nil {
		return nil, vl, err
	}
	a.Solution = (&alloc.Heuristic{Mode: mode}).Name()
	return a, vl, nil
}

// checkReplay compares replayed reports with the ones served in the same
// run; a replay that diverges from the server measures some other
// pipeline.
func checkReplay(sums map[int]replayed, rounds []*serveRound) error {
	for _, r := range rounds {
		for _, s := range r.runs {
			if want, ok := sums[s.idx]; ok && s.err == nil && s.crc != want.crc {
				return fmt.Errorf("request %d: replayed report differs from the served one", s.idx)
			}
		}
	}
	return nil
}
