package hypersim

import (
	"testing"

	"vc2m/internal/csa"
	"vc2m/internal/model"
	"vc2m/internal/timeunit"
	"vc2m/internal/trace"
)

// TestTraceStreamConsistency: the typed event stream agrees with the
// aggregate Result counters event-for-event, and the Result.Trace slice
// view is exactly the stream's exec-slice projection.
func TestTraceStreamConsistency(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 3}, [2]float64{20, 5})
	s, err := New(a, Config{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(200))

	counts := trace.CountByType(res.Events)
	if counts["job_release"] != res.Released {
		t.Errorf("job_release events %d != released %d", counts["job_release"], res.Released)
	}
	if counts["job_complete"] != res.Completed {
		t.Errorf("job_complete events %d != completed %d", counts["job_complete"], res.Completed)
	}
	if counts["deadline_miss"] != res.Missed {
		t.Errorf("deadline_miss events %d != missed %d", counts["deadline_miss"], res.Missed)
	}
	if uint64(counts["context_switch"]) != res.ContextSwitches {
		t.Errorf("context_switch events %d != switches %d", counts["context_switch"], res.ContextSwitches)
	}
	if uint64(counts["vcpu_replenish"]) != res.BudgetReplenishments {
		t.Errorf("vcpu_replenish events %d != replenishments %d", counts["vcpu_replenish"], res.BudgetReplenishments)
	}

	// Result.Trace is the exec-slice projection of the stream.
	slices := SlicesFromEvents(res.Events)
	if len(slices) != len(res.Trace) {
		t.Fatalf("projection has %d slices, Trace %d", len(slices), len(res.Trace))
	}
	for i := range slices {
		if slices[i] != res.Trace[i] {
			t.Fatalf("slice %d differs: %+v vs %+v", i, slices[i], res.Trace[i])
		}
	}

	// Events are in non-decreasing time order.
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].Time < res.Events[i-1].Time {
			t.Fatalf("stream goes backwards at %d: %v after %v", i, res.Events[i].Time, res.Events[i-1].Time)
		}
	}
}

// TestNoTraceWithoutRecordTrace: with RecordTrace off the Result
// retains no trace data, and recording never perturbs the simulation —
// both runs report the same totals.
func TestNoTraceWithoutRecordTrace(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 3}, [2]float64{20, 5})
	run := func(record bool) *Result {
		s, err := New(a, Config{RecordTrace: record})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(timeunit.FromMillis(100))
	}
	off, on := run(false), run(true)
	if off.Events != nil || off.Trace != nil {
		t.Error("Result retained trace data without RecordTrace")
	}
	if len(on.Events) == 0 {
		t.Fatal("RecordTrace recorded nothing")
	}
	if off.Released != on.Released || off.Completed != on.Completed || off.Missed != on.Missed ||
		off.ContextSwitches != on.ContextSwitches || off.SchedInvocations != on.SchedInvocations ||
		off.EngineSteps != on.EngineSteps {
		t.Errorf("recording changed the run: off %+v, on %+v", off, on)
	}
}

// TestDiagnoseThrottleScenario: a memory-hungry task under a tight BW
// budget misses because its core is throttled most of each period; every
// miss must be attributed to the throttle.
func TestDiagnoseThrottleScenario(t *testing.T) {
	// WCET 5 ms per 10 ms period, but 1000 req/ms against a budget of
	// 100 req per 1 ms regulation period: the core runs ~0.1 ms then sits
	// throttled ~0.9 ms, so the task can only progress ~1 ms per period.
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 5})
	s, err := New(a, Config{
		RecordTrace:      true,
		RegulationPeriod: timeunit.FromMillis(1),
		BWBudgets:        []int64{100},
		MemRate:          map[string]float64{taskName(0): 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	if res.Missed == 0 {
		t.Fatal("throttling scenario produced no misses")
	}
	if res.ThrottleEvents == 0 {
		t.Fatal("no throttle events")
	}
	rep := trace.Diagnose(res.Events)
	if len(rep.Misses) != res.Missed {
		t.Fatalf("diagnosed %d of %d misses", len(rep.Misses), res.Missed)
	}
	for _, d := range rep.Misses {
		if d.Cause != trace.CauseThrottled {
			t.Errorf("miss at %v attributed to %v, want %v: %s", d.At, d.Cause, trace.CauseThrottled, d)
		}
		if d.ThrottledFrac < 0.5 {
			t.Errorf("throttled fraction %v, want > 0.5: %s", d.ThrottledFrac, d)
		}
	}
}

// TestDiagnoseOverrunScenario: a task overrunning its declared WCET
// (Config.OverrunFactor) misses its own deadlines; every miss must be
// attributed to the overrun, and a well-behaved task on the same core
// must not miss at all (the containment property).
func TestDiagnoseOverrunScenario(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 3}, [2]float64{20, 4})
	s, err := New(a, Config{
		RecordTrace:   true,
		OverrunFactor: map[string]float64{taskName(0): 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(200))
	if res.Tasks[taskName(0)].Missed == 0 {
		t.Fatal("overrunning task did not miss")
	}
	if res.Tasks[taskName(1)].Missed != 0 {
		t.Fatal("overrun leaked into the other VCPU's task")
	}
	rep := trace.Diagnose(res.Events)
	if len(rep.Misses) != res.Missed {
		t.Fatalf("diagnosed %d of %d misses", len(rep.Misses), res.Missed)
	}
	for _, d := range rep.Misses {
		if d.Task != taskName(0) {
			t.Errorf("unexpected miss for %s", d.Task)
		}
		if d.Cause != trace.CauseOverrun {
			t.Errorf("miss at %v attributed to %v, want %v: %s", d.At, d.Cause, trace.CauseOverrun, d)
		}
	}
	counts := rep.ByTask[taskName(0)]
	if counts[trace.CauseOverrun] != res.Tasks[taskName(0)].Missed {
		t.Errorf("per-task aggregation %v != %d misses", counts, res.Tasks[taskName(0)].Missed)
	}
}

// TestDiagnoseSharedServerVictim: two tasks share a well-regulated VCPU;
// one overruns and drains the whole server. The overrunner is diagnosed
// as the overrun, its victim as out-of-budget — the analyzer separates
// the faulty task from the task it starved.
func TestDiagnoseSharedServerVictim(t *testing.T) {
	p := model.PlatformA
	hog := model.SimpleTask("hog", p, 10, 2)
	hog.VM = "vm"
	victim := model.SimpleTask("victim", p, 10, 2)
	victim.VM = "vm"
	v, err := csa.WellRegulatedVCPU([]*model.Task{hog, victim}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Allocation{
		Platform:    p,
		Cores:       []*model.CoreAlloc{{Core: 0, Cache: 10, BW: 10, VCPUs: []*model.VCPU{v}}},
		Schedulable: true,
	}
	s, err := New(a, Config{
		RecordTrace:   true,
		OverrunFactor: map[string]float64{"hog": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	if res.Tasks["hog"].Missed == 0 || res.Tasks["victim"].Missed == 0 {
		t.Fatalf("expected both tasks to miss: %+v", res.Tasks)
	}
	rep := trace.Diagnose(res.Events)
	for _, d := range rep.Misses {
		want := trace.CauseOverrun
		if d.Task == "victim" {
			want = trace.CauseNoBudget
		}
		if d.Cause != want {
			t.Errorf("%s miss at %v attributed to %v, want %v: %s", d.Task, d.At, d.Cause, want, d)
		}
	}
}

// TestDiagnosePreemptionScenario: two flattened VCPUs overload one core;
// the EDF tie-break always favors the lower-index VCPU, so the other
// task's misses are due to preemption.
func TestDiagnosePreemptionScenario(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 6}, [2]float64{10, 6})
	s, err := New(a, Config{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	if res.Tasks[taskName(0)].Missed != 0 {
		t.Fatalf("tie-break-preferred task missed: %+v", res.Tasks)
	}
	if res.Tasks[taskName(1)].Missed == 0 {
		t.Fatal("starved task did not miss")
	}
	rep := trace.Diagnose(res.Events)
	for _, d := range rep.Misses {
		if d.Cause != trace.CausePreempted {
			t.Errorf("miss at %v attributed to %v, want %v: %s", d.At, d.Cause, trace.CausePreempted, d)
		}
	}
}
