package csa

import (
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/workload"
)

func BenchmarkSBF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SBF(10, 5.5, float64(i%40))
	}
}

// minBudgetCase is one minimum-budget search input.
type minBudgetCase struct {
	pi       float64
	cps, dem []float64
}

// serveExistingSearches returns the (c,b) searches of seeded Platform A
// tasksets at reference utilization 1.2 across two VMs (the serving
// benchmark's existing-CSA request shape), after a five-checkpoint toy
// input.
func serveExistingSearches(b *testing.B) []minBudgetCase {
	cases := []minBudgetCase{{100, []float64{100, 200, 300, 400, 800}, []float64{10, 30, 45, 70, 150}}}
	cfg := workload.Config{Platform: model.PlatformA, TargetRefUtil: 1.2, Dist: workload.Uniform, NumVMs: 2}
	for seed := int64(1); seed <= 8; seed++ {
		forEachSearch(b, cfg, seed, func(pi float64, cps, dem []float64) {
			cases = append(cases, minBudgetCase{pi, cps, dem})
		})
	}
	return cases
}

// BenchmarkMinBudgetForDemand times one minimum-budget search, averaged
// over serveExistingSearches: /search is MinBudgetForDemand,
// /bisection-oracle the step-by-step bisection it reproduces.
func BenchmarkMinBudgetForDemand(b *testing.B) {
	cases := serveExistingSearches(b)
	for _, bc := range []struct {
		name   string
		search func(pi float64, cps, dem []float64) (float64, bool, int64, int64)
	}{
		{"search", minBudgetForDemand},
		{"bisection-oracle", bisectMinBudget},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := &cases[i%len(cases)]
				bc.search(c.pi, c.cps, c.dem)
			}
		})
	}
}

func benchTasks(n int) []*model.Task {
	p := model.PlatformA
	tasks := make([]*model.Task, n)
	for i := range tasks {
		period := 100.0 * float64(int(1)<<uint(i%4))
		tasks[i] = model.SimpleTask("t", p, period, period*0.05)
		tasks[i].VM = "vm"
	}
	return tasks
}

// BenchmarkExistingVCPU measures the cost of the classical analysis: a
// minimum-budget search per (c,b) allocation — the reason Figure 4's
// existing-CSA curve is an order of magnitude above the others.
func BenchmarkExistingVCPU(b *testing.B) {
	tasks := benchTasks(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExistingVCPU(tasks, 0, model.PlatformA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWellRegulatedVCPU measures the overhead-free analysis: a
// scaled table sum.
func BenchmarkWellRegulatedVCPU(b *testing.B) {
	tasks := benchTasks(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WellRegulatedVCPU(tasks, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewDemandHarmonic(b *testing.B) {
	periods := []float64{100, 200, 400, 800, 100, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDemand(periods); err != nil {
			b.Fatal(err)
		}
	}
}
