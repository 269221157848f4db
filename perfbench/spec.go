package main

import (
	"fmt"

	"vc2m"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

// Workload names, as BENCHMARK.json lists them.
const (
	serveExisting = "serve-existing"
	serveFlatSim  = "serve-flattening-sim"
	serveChurn    = "serve-churn"
	paperSweep    = "paper-sweep"
)

var workloadNames = []string{serveExisting, serveFlatSim, serveChurn, paperSweep}

// serveWorkload is one serving workload's request stream.
type serveWorkload struct {
	name       string
	mode       string  // wire analysis mode
	simulateMs float64 // hypersim horizon per run; 0 skips simulation
	churn      bool    // KindChurn against a base fleet instead of KindRun
}

var serveWorkloads = map[string]serveWorkload{
	serveExisting: {name: serveExisting, mode: "existing"},
	serveFlatSim:  {name: serveFlatSim, mode: "flattening", simulateMs: 2000},
	serveChurn:    {name: serveChurn, mode: "existing", churn: true},
}

// runGen is the KindRun taskset spec: Platform A at reference utilization
// 1.2 across two VMs. Each request generates its own taskset from its own
// seed, so no two requests of a run share one.
var runGen = workload.Config{
	Platform:      model.PlatformA,
	TargetRefUtil: 1.2,
	Dist:          workload.Uniform,
	NumVMs:        2,
}

// The serve-churn base fleet and request shape. The base fleet has one
// VM per event, so every departure names a base VM that is still present:
// an arrival the allocator refuses is a verdict, and no later event of the
// request depends on it.
const (
	churnVMs    = 16
	churnEvents = churnVMs
	// Requests spread over churnBases base fleets, so a run's figures do
	// not hinge on a single fleet drawn from its seed.
	churnBases    = 16
	churnAttempts = 64 // fleets tried per base before set-up gives up
	// An arrival scales each task of the departing VM by a factor drawn
	// from [churnScaleLo, churnScaleHi): the same shape, a fresh demand,
	// sometimes heavier, so warm placement occasionally falls back to a
	// repack.
	churnScaleLo = 0.6
	churnScaleHi = 1.3
	// churnFleetUtil is every base fleet's reference utilization: loose
	// enough that existing CSA accepts a fleet at its first attempt, so
	// set-up stays short.
	churnFleetUtil = 0.8
)

// churnGen generates a base fleet of single-task VMs: MaxTasks caps the
// fleet at one task per VM before the utilization target is reached.
// churnFleetUtil then scales the fleet to one reference utilization, so
// every base is about as tight as every other.
var churnGen = workload.Config{
	Platform:      model.PlatformA,
	TargetRefUtil: 2.0,
	Dist:          workload.Uniform,
	NumVMs:        churnVMs,
	MaxTasks:      churnVMs,
}

// Request index spaces. Measured requests count up from 0; warm-up
// requests and churn base attempts draw from ranges no run reaches.
const (
	warmupIndex = 1 << 30
	baseIndex   = 1 << 29
)

// requestSeed derives request i's seed from the workload seed with the
// splitmix64 finalizer, a bijection, so requests of one run never share a
// taskset.
func requestSeed(seed int64, i int) int64 {
	z := uint64(seed)<<32 + uint64(i) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 1)
}

// parseMode maps a wire mode name to the facade's mode.
func parseMode(name string) vc2m.Mode {
	if name == "existing" {
		return vc2m.ExistingCSA
	}
	return vc2m.Flattening
}

// runRequest is KindRun request i of workload w.
func runRequest(w serveWorkload, seed int64, i int) server.SubmitRequest {
	gen := runGen
	s := requestSeed(seed, i)
	return server.SubmitRequest{
		Kind:       server.KindRun,
		Mode:       w.mode,
		Seed:       s,
		GenSeed:    s,
		Generate:   &gen,
		SimulateMs: w.simulateMs,
	}
}

// churnBase is one serve-churn base fleet: its submission, which posts the
// fleet verbatim, an identical copy of the fleet that churn requests and
// in-process replays are built from, and the ID of the served base run.
type churnBase struct {
	req server.SubmitRequest
	sys *model.System
	id  string
}

// churnFleet is base fleet k of a run, starting at attempt a: the first
// attempt that has churnVMs VMs, scaled to churnFleetUtil. A fleet the
// server rejects cannot take churn either, so set-up moves on to the
// attempt after it. The fleets a run uses depend on the workload seed
// alone.
func churnFleet(seed int64, k, a int) (*churnBase, int, error) {
	for ; a < churnAttempts; a++ {
		s := requestSeed(seed, baseIndex+k*churnAttempts+a)
		sys, err := scaledFleet(s)
		if err != nil {
			return nil, a, err
		}
		if len(sys.VMs) < churnVMs {
			continue
		}
		// The submission gets its own copy, so nothing the in-process
		// allocator does to sys can reach the wire.
		wire, err := scaledFleet(s)
		if err != nil {
			return nil, a, err
		}
		return &churnBase{
			req: server.SubmitRequest{Kind: server.KindRun, Mode: "existing", Seed: s, GenSeed: s, System: wire},
			sys: sys,
		}, a, nil
	}
	return nil, a, fmt.Errorf("no schedulable churn base %d in %d attempts", k, churnAttempts)
}

func scaledFleet(seed int64) (*model.System, error) {
	sys, err := workload.Generate(churnGen, rngutil.New(seed))
	if err != nil {
		return nil, err
	}
	var u float64
	for _, vm := range sys.VMs {
		u += vm.RefUtil()
	}
	for _, vm := range sys.VMs {
		for _, t := range vm.Tasks {
			t.WCET.Scale(churnFleetUtil / u)
		}
	}
	return sys, nil
}

// baseAllocation is base fleet cb's allocation computed in-process, the
// starting point of every in-process churn replay.
func baseAllocation(cb *churnBase) (*model.Allocation, error) {
	return vc2m.Allocate(cb.sys, vc2m.Options{Mode: vc2m.ExistingCSA, Seed: cb.req.Seed})
}

// churnRequest is KindChurn request i against base fleet i mod
// churnBases: one event per base VM, each departing the oldest VM of the
// fleet and admitting a like-for-like arrival. Each call builds fresh VM
// objects, so the wire submission and an in-process replay never share
// one.
func churnRequest(w serveWorkload, bases []*churnBase, seed int64, i int) server.SubmitRequest {
	base := bases[i%len(bases)]
	s := requestSeed(seed, i)
	rng := rngutil.New(s)
	fifo := append([]*model.VM(nil), base.sys.VMs...)
	events := make([]server.ChurnEvent, churnEvents)
	for j := range events {
		dep := fifo[0]
		arr := likeForLike(dep, fmt.Sprintf("q%d-e%d", i, j), rng)
		fifo = append(fifo[1:], arr)
		events[j] = server.ChurnEvent{Departures: []string{dep.ID}, Arrivals: []*model.VM{arr}}
	}
	return server.SubmitRequest{Kind: server.KindChurn, Mode: w.mode, Seed: s,
		Churn: &server.ChurnSpec{Events: events}}
}

// likeForLike builds an arrival with the departing VM's shape: the same
// tasks' periods and benchmark profiles, each WCET table scaled by its own
// factor.
func likeForLike(dep *model.VM, id string, rng *rngutil.RNG) *model.VM {
	vm := &model.VM{ID: id, MaxVCPUs: dep.MaxVCPUs}
	for k, t := range dep.Tasks {
		vm.Tasks = append(vm.Tasks, &model.Task{
			ID:        fmt.Sprintf("%s-t%d", id, k),
			VM:        id,
			Period:    t.Period,
			WCET:      t.WCET.Clone().Scale(rng.Uniform(churnScaleLo, churnScaleHi)),
			Benchmark: t.Benchmark,
		})
	}
	return vm
}
