package csa

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"vc2m/internal/model"
)

func TestNewDemandHarmonic(t *testing.T) {
	d, err := NewDemand([]float64{10, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	// Hyperperiod = 40; checkpoints = {10,20,30,40} from p=10, {20,40} from
	// p=20, {40} from p=40, deduplicated.
	want := []float64{10, 20, 30, 40}
	got := d.Checkpoints()
	if len(got) != len(want) {
		t.Fatalf("checkpoints = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("checkpoint[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNewDemandNonHarmonic(t *testing.T) {
	d, err := NewDemand([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Hyperperiod = 6; checkpoints {2,3,4,6}.
	got := d.Checkpoints()
	want := []float64{2, 3, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("checkpoints = %v, want %v", got, want)
	}
}

func TestNewDemandErrors(t *testing.T) {
	if _, err := NewDemand(nil); err == nil {
		t.Error("empty taskset accepted")
	}
	if _, err := NewDemand([]float64{10, -1}); err == nil {
		t.Error("negative period accepted")
	}
	// Co-prime large periods explode the hyperperiod.
	if _, err := NewDemand([]float64{1000.001, 999.9990001, 997.77, 1001.3}); !errors.Is(err, ErrHyperperiodTooLarge) {
		t.Errorf("expected ErrHyperperiodTooLarge, got %v", err)
	}
}

func TestDBFValues(t *testing.T) {
	d, err := NewDemand([]float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoints: 10, 20. WCETs 1 and 4.
	dem := d.DBF([]float64{1, 4})
	// dbf(10) = 1*1 + 0*4 = 1; dbf(20) = 2*1 + 1*4 = 6.
	if math.Abs(dem[0]-1) > 1e-9 || math.Abs(dem[1]-6) > 1e-9 {
		t.Errorf("DBF = %v, want [1 6]", dem)
	}
}

func TestDBFAt(t *testing.T) {
	d, err := NewDemand([]float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.DBFAt([]float64{1, 4}, 15); math.Abs(got-1) > 1e-9 {
		t.Errorf("DBFAt(15) = %v, want 1", got)
	}
	if got := d.DBFAt([]float64{1, 4}, 40); math.Abs(got-12) > 1e-9 {
		t.Errorf("DBFAt(40) = %v, want 12", got)
	}
}

func TestDBFPanicsOnLengthMismatch(t *testing.T) {
	d, _ := NewDemand([]float64{10})
	defer func() {
		if recover() == nil {
			t.Error("DBF with wrong length did not panic")
		}
	}()
	d.DBF([]float64{1, 2})
}

func TestHarmonicPeriods(t *testing.T) {
	cases := []struct {
		ps   []float64
		want bool
	}{
		{[]float64{100, 200, 400, 800}, true},
		{[]float64{100}, true},
		{nil, true},
		{[]float64{110.5, 221, 442}, true},
		{[]float64{100, 300}, true},
		{[]float64{100, 150}, false},
		{[]float64{100, 0}, false},
		{[]float64{3, 5}, false},
	}
	for _, c := range cases {
		if got := HarmonicPeriods(c.ps); got != c.want {
			t.Errorf("HarmonicPeriods(%v) = %v, want %v", c.ps, got, c.want)
		}
	}
}

func TestHarmonicPeriodsDoublingChain(t *testing.T) {
	// Generated the same way the workload generator produces periods.
	base := 107.325
	ps := []float64{base, base * 2, base * 4, base * 8}
	if !HarmonicPeriods(ps) {
		t.Error("doubling chain not recognized as harmonic")
	}
}

func TestTaskVectors(t *testing.T) {
	p := model.PlatformA
	tasks := []*model.Task{
		model.SimpleTask("t1", p, 10, 1),
		model.SimpleTask("t2", p, 20, 2),
	}
	ps := TaskPeriods(tasks)
	if ps[0] != 10 || ps[1] != 20 {
		t.Errorf("TaskPeriods = %v", ps)
	}
	es := TaskWCETs(tasks, 2, 1)
	if es[0] != 1 || es[1] != 2 {
		t.Errorf("TaskWCETs = %v", es)
	}
}

func TestDemandCheckpointsShared(t *testing.T) {
	d, _ := NewDemand([]float64{10, 20})
	a := d.Checkpoints()
	b := d.Checkpoints()
	if &a[0] != &b[0] {
		t.Error("Checkpoints should return the shared slice (documented)")
	}
}

// TestDBFIntoMatchesFromScratch guards the memoized demand evaluation the
// existing CSA runs once per candidate (c,b): for every candidate on
// Platform A, DBFInto over the period-folded counts matrix — one WCET and
// one demand buffer reused across the whole grid — must equal the
// from-scratch dbf(t) = sum_i floor(t/p_i)*e_i(c,b) at every checkpoint.
func TestDBFIntoMatchesFromScratch(t *testing.T) {
	p := model.PlatformA
	// The 24-task harmonic 10..160 ms ladder: 16 checkpoints and five
	// distinct periods, the shape the existing CSA sees on the paper's
	// workloads.
	ladder := make([]float64, 24)
	for i := range ladder {
		ladder[i] = 10 * float64(int(1)<<uint(i%5))
	}
	cases := []struct {
		name    string
		periods []float64
	}{
		{"harmonic ladder", ladder},
		{"non-harmonic", []float64{10, 15, 25}},
		{"co-prime", []float64{7, 11, 13}},
		{"fractional with repeats", []float64{12.5, 30, 45, 30, 12.5}},
	}
	for _, tc := range cases {
		// WCETs vary with (c,b) and per task, so a candidate or task
		// mixed up anywhere in the fold shows as a wrong demand.
		tasks := make([]*model.Task, len(tc.periods))
		for i, period := range tc.periods {
			wcet := model.NewResourceTableFor(p)
			wcet.Fill(func(c, b int) float64 {
				return period * 0.04 * (1 + float64(i%3+1)/float64(c) + 0.5/float64(b))
			})
			tasks[i] = &model.Task{ID: fmt.Sprintf("t%d", i), Period: period, WCET: wcet}
		}
		d, err := NewDemand(TaskPeriods(tasks))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cps := d.Checkpoints()
		wcets := make([]float64, len(tasks))
		dem := make([]float64, len(cps))
		for c := p.Cmin; c <= p.C; c++ {
			for b := p.Bmin; b <= p.B; b++ {
				d.DBFInto(dem, TaskWCETsInto(wcets, tasks, c, b))
				for k, cp := range cps {
					var want float64
					for _, task := range tasks {
						want += math.Floor(cp/task.Period+1e-9) * task.WCET.At(c, b)
					}
					if math.Abs(dem[k]-want) > 1e-9*math.Max(want, 1) {
						t.Fatalf("%s: (c=%d, b=%d) dbf(%v) = %v, from scratch %v",
							tc.name, c, b, cp, dem[k], want)
					}
				}
			}
		}
	}
}
