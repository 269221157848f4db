package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/workload"
)

// genReq returns a small, fast run submission.
func genReq(seed int64) SubmitRequest {
	return SubmitRequest{
		Kind:    KindRun,
		Mode:    "flattening",
		GenSeed: seed,
		Generate: &workload.Config{
			Platform:      model.PlatformC,
			TargetRefUtil: 0.8,
			Dist:          workload.Uniform,
		},
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func waitDone(t *testing.T, run *Run) RunStatus {
	t.Helper()
	select { //vc2m:ctxfree test helper; the timeout case bounds the wait
	case <-run.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("run %s did not finish", run.ID())
	}
	return run.Status()
}

func TestSubmitLifecycle(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	run, err := s.Submit(genReq(7))
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, run)
	if st.State != StateDone {
		t.Fatalf("state %s (error %q), want done", st.State, st.Error)
	}
	if st.Schedulable == nil || !*st.Schedulable {
		t.Fatalf("run not schedulable: %+v", st)
	}
	if st.Decisions == 0 {
		t.Fatal("no provenance decisions recorded")
	}
	data, ok := run.ReportJSON()
	if !ok || len(data) == 0 {
		t.Fatal("no report document")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	cases := []SubmitRequest{
		{},              // no system, no generate
		{Kind: "bogus"}, // unknown kind
		{Kind: KindRun, Mode: "nope", Generate: genReq(1).Generate},   // bad mode
		{Kind: KindRun, Generate: genReq(1).Generate, SimulateMs: -1}, // bad horizon
		{Kind: KindSweep}, // sweep without spec
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "Z"}},               // bad platform
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "A", Dist: "nope"}}, // bad dist
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "A"}, System: &model.System{}},
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "A"}, Metrics: true},            // sweeps record no metrics
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "A"}, SimulateMs: 1100},         // sweeps never simulate
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "A", TasksetsPerPoint: -1}},     // used to panic the worker
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "A", UtilStep: -0.05}},          // negative step
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "A", UtilMin: 1.5, UtilMax: 1}}, // empty range
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "A", TasksetsPerPoint: 1e13}},   // panicked make()
		{Kind: KindSweep, Sweep: &SweepSpec{Platform: "A", UtilStep: 1e-9}},           // 1.9e9-point grid
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("case %d: invalid submission accepted: %+v", i, req)
		}
	}
}

func TestRejectionIsAResult(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	req := genReq(3)
	req.Generate.TargetRefUtil = 8.0 // hopeless on 4 cores
	run, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, run)
	if st.State != StateDone {
		t.Fatalf("rejection should be done, got %s (%s)", st.State, st.Error)
	}
	if st.Schedulable == nil || *st.Schedulable {
		t.Fatalf("rejection reported schedulable: %+v", st)
	}
	data, _ := run.ReportJSON()
	if len(data) == 0 {
		t.Fatal("rejection produced no report")
	}
}

func TestCancelPendingRun(t *testing.T) {
	// One worker, occupied by a long sweep; the queued run behind it is
	// canceled before pickup.
	s := startServer(t, Config{Workers: 1, Queue: 8})
	slow, err := s.Submit(SubmitRequest{
		Kind: KindSweep,
		Sweep: &SweepSpec{
			Platform: "C", UtilMin: 0.5, UtilMax: 2.0, UtilStep: 0.05,
			TasksetsPerPoint: 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(genReq(1))
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	slow.Cancel()
	if st := waitDone(t, queued); st.State != StateCanceled {
		t.Fatalf("canceled pending run reached %s", st.State)
	}
	if st := waitDone(t, slow); st.State != StateCanceled {
		t.Fatalf("canceled sweep reached %s (%s)", st.State, st.Error)
	}
}

func TestQueueFullAndDraining(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1})
	// Not started: the queue fills immediately.
	if _, err := s.Submit(genReq(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(genReq(2)); err != ErrQueueFull {
		t.Fatalf("second submit: %v, want ErrQueueFull", err)
	}
	// The failed submission must not linger in the registry.
	if got := len(s.Registry().Runs()); got != 1 {
		t.Fatalf("registry has %d runs, want 1", got)
	}
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(genReq(3)); err != ErrDraining {
		t.Fatalf("submit after shutdown: %v, want ErrDraining", err)
	}
	// The queued run was drained, not dropped.
	if st := s.Registry().Runs()[0].Status(); st.State != StateDone {
		t.Fatalf("drained run state %s, want done", st.State)
	}
}

// TestShutdownDrainsInFlight is the acceptance scenario: shutdown during
// an in-flight run completes the run and retains its report.
func TestShutdownDrainsInFlight(t *testing.T) {
	s := New(Config{Workers: 2})
	s.Start()
	run, err := s.Submit(genReq(11))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := run.Status()
	if st.State != StateDone {
		t.Fatalf("in-flight run drained to %s (%s), want done", st.State, st.Error)
	}
	if _, ok := run.ReportJSON(); !ok {
		t.Fatal("drained run has no report")
	}
}

// TestRegistryHammer exercises the registry under concurrent submits,
// status reads and a mid-flight shutdown — run with -race.
func TestRegistryHammer(t *testing.T) {
	s := New(Config{Workers: 4, Queue: 256})
	s.Start()
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			run, err := s.Submit(genReq(seed))
			if err != nil {
				return // draining/full are legitimate outcomes here
			}
			_ = run.Status()
			if seed%3 == 0 {
				run.Cancel()
			}
		}(int64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Registry().Statuses()
			_, _ = s.reg.Count()
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, run := range s.Registry().Runs() {
		st := run.Status()
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
		default:
			t.Errorf("run %s left in state %s after drain", st.ID, st.State)
		}
	}
}

func TestDeterministicRunIDs(t *testing.T) {
	reg := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := reg.Add(SubmitRequest{}, ctx, cancel, obs.TraceContext{}, "")
	b := reg.Add(SubmitRequest{}, ctx, cancel, obs.TraceContext{}, "")
	if a.ID() != "r0001" || b.ID() != "r0002" {
		t.Fatalf("ids %s, %s — want counter-based r0001, r0002", a.ID(), b.ID())
	}
	if !a.TraceContext().Valid() || a.TraceContext().TraceID == b.TraceContext().TraceID {
		t.Fatalf("runs must get distinct minted trace contexts: %+v vs %+v",
			a.TraceContext(), b.TraceContext())
	}
}
