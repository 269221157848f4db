package experiment

import (
	"reflect"
	"testing"

	"vc2m/internal/model"
)

// The harnesses promise worker-count-independent results: every RNG stream
// is split off the root before the workers start and reductions run in
// index order. These tests pin that promise by diffing serial against
// 4-way-parallel runs. Run them under -race to also certify the workers
// share no mutable state.

func TestRunVMCountParallelMatchesSerial(t *testing.T) {
	base := VMCountConfig{
		Platform:         model.PlatformA,
		Util:             1.0,
		VMCounts:         []int{1, 2},
		TasksetsPerPoint: 6,
		Seed:             7,
	}
	serial, err := RunVMCount(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallel = 4
	parallel, err := RunVMCount(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Fractions, parallel.Fractions) {
		t.Errorf("fractions differ:\nserial   %v\nparallel %v",
			serial.Fractions, parallel.Fractions)
	}
	if serial.Table() != parallel.Table() {
		t.Error("rendered tables differ between serial and parallel runs")
	}
}

func TestRunPartitionSweepParallelMatchesSerial(t *testing.T) {
	base := PartitionSweepConfig{
		Cores:            2,
		Partitions:       []int{8, 12},
		Util:             1.2,
		TasksetsPerPoint: 6,
		Seed:             3,
	}
	serial, err := RunPartitionSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallel = 4
	parallel, err := RunPartitionSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Heuristic, parallel.Heuristic) ||
		!reflect.DeepEqual(serial.Evenly, parallel.Evenly) {
		t.Errorf("fractions differ:\nserial   %v / %v\nparallel %v / %v",
			serial.Heuristic, serial.Evenly, parallel.Heuristic, parallel.Evenly)
	}
}

func TestRunOnlineParallelMatchesSerial(t *testing.T) {
	base := OnlineConfig{Arrivals: 5, Trials: 4, Seed: 11}
	serial, err := RunOnline(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallel = 4
	parallel, err := RunOnline(par)
	if err != nil {
		t.Fatal(err)
	}
	if serial.OnlineAdmitted != parallel.OnlineAdmitted || //vc2m:floateq identical runs must agree exactly
		serial.OfflineAdmitted != parallel.OfflineAdmitted { //vc2m:floateq identical runs must agree exactly
		t.Errorf("admission counts differ: serial %v/%v, parallel %v/%v",
			serial.OnlineAdmitted, serial.OfflineAdmitted,
			parallel.OnlineAdmitted, parallel.OfflineAdmitted)
	}
}

// TestRunSchedulabilityParallelMatchesSerial keeps the sweep's parallel
// path honest against the serial reference. The range crosses the
// schedulability cliff so fractions are not all 1, and the search-effort
// counters (deterministic at any Parallel) catch a taskset analyzed twice
// or skipped even where the fractions happen to agree.
func TestRunSchedulabilityParallelMatchesSerial(t *testing.T) {
	base := SchedConfig{
		Platform:         model.PlatformA,
		UtilMin:          0.8,
		UtilMax:          1.6,
		UtilStep:         0.4,
		TasksetsPerPoint: 4,
		Seed:             5,
		CollectMetrics:   true,
	}
	serial, err := RunSchedulability(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallel = 4
	parallel, err := RunSchedulability(par)
	if err != nil {
		t.Fatal(err)
	}
	// Fractions are deterministic; AvgSeconds is wall-clock and is not.
	if serial.FractionTable() != parallel.FractionTable() {
		t.Errorf("fraction tables differ:\nserial:\n%s\nparallel:\n%s",
			serial.FractionTable(), parallel.FractionTable())
	}
	for si := range serial.Series {
		sc, pc := serial.Series[si].Metrics.Counters, parallel.Series[si].Metrics.Counters
		if !reflect.DeepEqual(sc, pc) {
			t.Errorf("%s: counters differ:\nserial   %v\nparallel %v",
				serial.Series[si].Solution, sc, pc)
		}
	}
}
