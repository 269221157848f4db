package hypersim

import (
	"fmt"
	"testing"

	"vc2m/internal/csa"
	"vc2m/internal/model"
	"vc2m/internal/timeunit"
)

// benchAlloc builds n flattened VCPUs spread over 4 cores at ~80% load.
func benchAlloc(tb testing.TB, n int) *model.Allocation {
	tb.Helper()
	p := model.PlatformA
	perCore := make([][]*model.VCPU, 4)
	for i := 0; i < n; i++ {
		core := i % 4
		period := 10.0 * float64(int(1)<<uint(i%3))
		share := 0.8 / float64((n+3)/4)
		task := model.SimpleTask(fmt.Sprintf("t%d", i), p, period, period*share)
		task.VM = "vm"
		perCore[core] = append(perCore[core], csa.FlattenVCPU(task, i))
	}
	cores := make([]*model.CoreAlloc, 4)
	for c := range cores {
		cores[c] = &model.CoreAlloc{Core: c, Cache: 5, BW: 5, VCPUs: perCore[c]}
	}
	return &model.Allocation{Platform: p, Cores: cores, Schedulable: true}
}

// BenchmarkSimulateSecond measures the wall cost of simulating one second
// of a 24-VCPU system.
func BenchmarkSimulateSecond(b *testing.B) {
	a := benchAlloc(b, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(a, Config{})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run(timeunit.FromMillis(1000))
		if res.Missed != 0 {
			b.Fatalf("unexpected misses: %d", res.Missed)
		}
	}
}

// BenchmarkSimulateRegulated adds bandwidth regulation at a 1 ms period.
func BenchmarkSimulateRegulated(b *testing.B) {
	a := benchAlloc(b, 24)
	rates := map[string]float64{}
	for i := 0; i < 24; i++ {
		rates[fmt.Sprintf("t%d", i)] = 500
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(a, Config{
			RegulationPeriod: timeunit.FromMillis(1),
			BWBudgets:        []int64{400, 400, 400, 400},
			MemRate:          rates,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run(timeunit.FromMillis(1000))
	}
}
