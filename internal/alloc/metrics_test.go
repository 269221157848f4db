package alloc

import (
	"reflect"
	"testing"

	"vc2m/internal/csa"
	"vc2m/internal/metrics"
	"vc2m/internal/rngutil"
)

// runWithRecorder allocates the system with a fresh recorder attached and
// returns the resulting counter snapshot.
func runWithRecorder(t *testing.T, a Allocator, target float64, sysSeed, allocSeed int64) map[string]int64 {
	t.Helper()
	rec := metrics.New()
	ms, ok := a.(MetricsSetter)
	if !ok {
		t.Fatalf("%s does not implement MetricsSetter", a.Name())
	}
	ms.SetMetrics(rec)
	sys := genSystem(t, target, sysSeed)
	if _, err := a.Allocate(sys, rngutil.New(allocSeed)); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	return rec.Snapshot().Counters
}

// TestPaperSolutionsImplementMetricsSetter checks every paper solution can
// take a recorder through the optional interface.
func TestPaperSolutionsImplementMetricsSetter(t *testing.T) {
	for _, sol := range PaperSolutions() {
		if _, ok := sol.(MetricsSetter); !ok {
			t.Errorf("%s does not implement MetricsSetter", sol.Name())
		}
	}
}

// TestHeuristicMetricsDeterministic runs the same seeded allocation twice
// and requires bit-identical counters — the recorder must not perturb or
// depend on scheduling.
func TestHeuristicMetricsDeterministic(t *testing.T) {
	for _, mode := range []CSAMode{ExistingCSA, OverheadFree, Flattening} {
		a := runWithRecorder(t, &Heuristic{Mode: mode}, 0.8, 3, 7)
		b := runWithRecorder(t, &Heuristic{Mode: mode}, 0.8, 3, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("mode %v: counters differ across identical runs:\n%v\n%v", mode, a, b)
		}
	}
}

// TestExistingCSACountsAnalysisEffort checks the existing CSA records the
// dbf/sbf work that explains its Figure-4 running-time premium, and that
// the overhead-free analyses record none (the acceptance criterion asks
// for a 10x ratio; the true ratio is infinite).
func TestExistingCSACountsAnalysisEffort(t *testing.T) {
	existing := runWithRecorder(t, &Heuristic{Mode: ExistingCSA}, 0.8, 3, 7)
	free := runWithRecorder(t, &Heuristic{Mode: OverheadFree}, 0.8, 3, 7)

	if existing[csa.MetricDBFEvals] == 0 || existing[csa.MetricSBFEvals] == 0 {
		t.Fatalf("existing CSA recorded no dbf/sbf evaluations: %v", existing)
	}
	if free[csa.MetricDBFEvals] != 0 || free[csa.MetricSBFEvals] != 0 {
		t.Fatalf("overhead-free CSA recorded dbf/sbf evaluations: %v", free)
	}
	if existing[csa.MetricDBFEvals] < 10*(free[csa.MetricDBFEvals]+1) {
		t.Errorf("dbf evals: existing %d < 10x overhead-free %d",
			existing[csa.MetricDBFEvals], free[csa.MetricDBFEvals])
	}
	if existing[csa.MetricMinBudgetIters] == 0 {
		t.Errorf("existing CSA recorded no bisection iterations")
	}
	// The search replays bisection steps against a closed-form threshold
	// and calls SBF only near it: one SBF call per step would mean the
	// replay silently fell back to plain bisection.
	if existing[csa.MetricSBFEvals] >= existing[csa.MetricMinBudgetIters] {
		t.Errorf("sbf evals %d >= bisection steps %d: the search evaluates SBF at every step",
			existing[csa.MetricSBFEvals], existing[csa.MetricMinBudgetIters])
	}
}

// TestBaselineMetrics checks the baseline solution's counters: it uses the
// existing CSA per candidate packing, so it must record budget searches.
func TestBaselineMetrics(t *testing.T) {
	got := runWithRecorder(t, &Baseline{}, 0.6, 5, 0)
	if got[MetricAllocCalls] != 1 || got[MetricAllocSchedulable] != 1 {
		t.Errorf("calls/schedulable = %d/%d, want 1/1",
			got[MetricAllocCalls], got[MetricAllocSchedulable])
	}
	if got[csa.MetricMinBudgetCalls] == 0 || got[csa.MetricDBFEvals] == 0 {
		t.Errorf("baseline recorded no budget searches: %v", got)
	}
	if got[MetricVCPUsBuilt] == 0 {
		t.Errorf("baseline recorded no VCPUs built")
	}
}

// TestAllocatorsRunWithoutRecorder checks the nil-recorder default path on
// every paper solution: allocation succeeds with no recorder attached.
func TestAllocatorsRunWithoutRecorder(t *testing.T) {
	sys := genSystem(t, 0.6, 5)
	for _, sol := range PaperSolutions() {
		if _, err := sol.Allocate(sys, rngutil.New(1)); err != nil {
			t.Errorf("%s without recorder: %v", sol.Name(), err)
		}
	}
}
