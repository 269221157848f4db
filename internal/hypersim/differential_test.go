package hypersim

import (
	"errors"
	"fmt"
	"testing"

	"vc2m/internal/alloc"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/timeunit"
	"vc2m/internal/workload"
)

// TestAnalysisImpliesZeroMisses is the analysis<->simulation differential
// oracle: over a population of random workloads, every allocation the CSA
// declares schedulable must run without a single deadline miss over (two)
// hyperperiods of simulation. The simulator quantizes demands down and
// budgets up, so it can only be easier than the analysis assumed — a miss
// is therefore always an analysis or simulator bug, never noise.
//
// The table covers all three CSA variants the paper's heuristic uses (the
// flattening analysis, the existing CSA, and the overhead-free analysis
// of Theorem 2) on Platforms A, B and C under the uniform, bimodal-light
// and bimodal-heavy distributions. Utilizations run from 0.6 to 1.95, past
// the point where the existing CSA starts rejecting (Figs. 2-3); every
// cell must still find a third of its seeds schedulable, or the oracle
// has no power there. The generator's harmonic periods are Theorem 2's
// hypothesis, so no case is excluded.
func TestAnalysisImpliesZeroMisses(t *testing.T) {
	modes := []struct {
		name string
		mode alloc.CSAMode
	}{
		{"flattening", alloc.Flattening},
		{"existing-csa", alloc.ExistingCSA},
		{"overhead-free", alloc.OverheadFree},
	}
	platforms := []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC}
	dists := []workload.Distribution{workload.Uniform, workload.BimodalLight, workload.BimodalHeavy}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for _, plat := range platforms {
				for _, dist := range dists {
					t.Run(fmt.Sprintf("%s/%s", plat.Name, dist), func(t *testing.T) {
						zeroMissCell(t, m.name, m.mode, plat, dist)
					})
				}
			}
		})
	}
}

// zeroMissCell runs one table cell of TestAnalysisImpliesZeroMisses:
// 56 workloads, two at each utilization 0.6, 0.65, ..., 1.95, each
// allocated by the heuristic in mode and, when accepted, simulated for
// two hyperperiods.
func zeroMissCell(t *testing.T, name string, mode alloc.CSAMode, plat model.Platform, dist workload.Distribution) {
	const seeds = 56
	h := &alloc.Heuristic{Mode: mode}
	schedulable := 0
	for seed := int64(0); seed < seeds; seed++ {
		util := 0.6 + 0.05*float64(seed%28)
		sys, err := workload.Generate(workload.Config{
			Platform:      plat,
			TargetRefUtil: util,
			Dist:          dist,
		}, rngutil.New(7000+seed))
		if err != nil {
			t.Fatal(err)
		}
		a, err := h.Allocate(sys, rngutil.New(seed))
		if errors.Is(err, model.ErrNotSchedulable) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		schedulable++

		// Harmonic ladder: the hyperperiod is the maximum period.
		var hyper float64
		for _, vm := range sys.VMs {
			for _, task := range vm.Tasks {
				if task.Period > hyper {
					hyper = task.Period
				}
			}
		}
		s, err := New(a, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(2 * timeunit.FromMillis(hyper))
		if res.Missed != 0 {
			t.Errorf("seed %d (util %.2f): analysis (%s) schedulable but simulation missed %d deadlines (%d released)",
				seed, util, name, res.Missed, res.Released)
		}
		if res.Released == 0 {
			t.Errorf("seed %d: no jobs released over two hyperperiods", seed)
		}
	}
	if schedulable < seeds/3 {
		t.Fatalf("only %d of %d seeds schedulable; oracle has no power", schedulable, seeds)
	}
	t.Logf("%d of %d seeds schedulable, all miss-free", schedulable, seeds)
}
