package hypersim

import (
	"math"

	"vc2m/internal/sim"
	"vc2m/internal/stats"
	"vc2m/internal/timeunit"
	"vc2m/internal/trace"
)

// vcpuHeap is the per-core ready queue: a min-heap of runnable VCPUs under
// the EDF order with vC2M's deterministic tie-breaking (vcpuLess). The top
// of the heap is exactly the VCPU the reference linear scan would pick,
// because vcpuLess is a strict total order (the VCPU index breaks every
// tie), so heap dispatch and linear dispatch produce byte-identical traces.
// Like the sim engine's event queue it is hand-rolled rather than built on
// container/heap: sift steps are direct calls on a concrete slice instead
// of interface dispatches, which is what makes the queue cheaper than the
// linear scan it replaces at realistic VCPU counts.
type vcpuHeap []*vcpuState

func (h *vcpuHeap) push(v *vcpuState) {
	v.heapIdx = len(*h)
	*h = append(*h, v)
	h.siftUp(v.heapIdx)
}

// fix restores the heap property after the key of the element at i changed.
func (h *vcpuHeap) fix(i int) {
	if !h.siftDown(i) {
		h.siftUp(i)
	}
}

// remove deletes the element at index i.
func (h *vcpuHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	q[i].heapIdx = -1
	if i != n {
		q[i] = q[n]
		q[i].heapIdx = i
	}
	q[n] = nil
	*h = q[:n]
	if i != n {
		h.fix(i)
	}
}

func (h *vcpuHeap) siftUp(i int) {
	q := *h
	for i > 0 {
		parent := (i - 1) / 2
		if !vcpuLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		q[i].heapIdx = i
		q[parent].heapIdx = parent
		i = parent
	}
}

func (h *vcpuHeap) siftDown(i int) bool {
	q := *h
	n := len(q)
	moved := false
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return moved
		}
		child := l
		if r < n && vcpuLess(q[r], q[l]) {
			child = r
		}
		if !vcpuLess(q[child], q[i]) {
			return moved
		}
		q[i], q[child] = q[child], q[i]
		q[i].heapIdx = i
		q[child].heapIdx = child
		i = child
		moved = true
	}
}

// taskHeap is the per-VCPU ready queue of active tasks in EDF order with
// the task-index tie-break (taskLess) — again a strict total order, so the
// top equals the linear scan's pick. Hand-rolled for the same reason as
// vcpuHeap.
type taskHeap []*taskState

func (h *taskHeap) push(t *taskState) {
	t.heapIdx = len(*h)
	*h = append(*h, t)
	h.siftUp(t.heapIdx)
}

func (h *taskHeap) fix(i int) {
	if !h.siftDown(i) {
		h.siftUp(i)
	}
}

func (h *taskHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	q[i].heapIdx = -1
	if i != n {
		q[i] = q[n]
		q[i].heapIdx = i
	}
	q[n] = nil
	*h = q[:n]
	if i != n {
		h.fix(i)
	}
}

func (h *taskHeap) siftUp(i int) {
	q := *h
	for i > 0 {
		parent := (i - 1) / 2
		if !taskLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		q[i].heapIdx = i
		q[parent].heapIdx = parent
		i = parent
	}
}

func (h *taskHeap) siftDown(i int) bool {
	q := *h
	n := len(q)
	moved := false
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return moved
		}
		child := l
		if r < n && taskLess(q[r], q[l]) {
			child = r
		}
		if !taskLess(q[child], q[i]) {
			return moved
		}
		q[i], q[child] = q[child], q[i]
		q[i].heapIdx = i
		q[child].heapIdx = child
		i = child
		moved = true
	}
}

// vcpuRunnable is the ready-queue membership predicate: released, with
// budget remaining, and either holding an active task or required to
// consume budget while idle (well-regulated servers). It mirrors the
// linear scan's skip conditions exactly.
func vcpuRunnable(v *vcpuState) bool {
	return v.released && v.remaining > 0 && (v.idleConsume() || len(v.readyTasks) > 0)
}

// syncVCPUReady reconciles v's membership and position in its core's ready
// heap. It must be called after any change to the VCPU's release state,
// budget, deadline, or active-task set — and after syncTaskReady for the
// affected task, since runnability reads the task heap's size. keyChanged
// must be true when the heap key (the EDF deadline) may have moved; most
// mutations (budget decrements, task-set changes) only affect membership,
// and skipping the heap.Fix for those keeps the common path O(1).
func (s *Simulator) syncVCPUReady(v *vcpuState, keyChanged bool) {
	if s.cfg.LinearDispatch {
		return
	}
	core := s.cores[v.core]
	if vcpuRunnable(v) {
		if v.heapIdx < 0 {
			core.ready.push(v)
		} else if keyChanged {
			core.ready.fix(v.heapIdx)
		}
	} else if v.heapIdx >= 0 {
		core.ready.remove(v.heapIdx)
	}
}

// syncTaskReady reconciles t's membership and position in its VCPU's ready
// heap after any change to the task's active flag or deadline. keyChanged
// follows the same contract as syncVCPUReady's.
func (s *Simulator) syncTaskReady(t *taskState, keyChanged bool) {
	if s.cfg.LinearDispatch {
		return
	}
	v := t.vcpu
	if t.active {
		if t.heapIdx < 0 {
			v.readyTasks.push(t)
		} else if keyChanged {
			v.readyTasks.fix(t.heapIdx)
		}
	} else if t.heapIdx >= 0 {
		v.readyTasks.remove(t.heapIdx)
	}
}

// charge accounts the elapsed execution of the core's current slice: it
// debits the running VCPU's budget and task's remaining demand, issues the
// slice's memory requests to the regulator, detects task completion, and
// records the trace entry. It is safe to call repeatedly; after charging,
// the slice restarts from the current instant.
func (s *Simulator) charge(core *coreState) {
	now := s.engine.Now()
	elapsed := now - core.runStart
	v := core.current
	if v == nil || elapsed <= 0 {
		core.runStart = now
		return
	}
	v.remaining -= elapsed
	if v.remaining < 0 {
		v.remaining = 0
	}
	v.execTicks += elapsed
	core.busyTicks += elapsed

	// Context-switch overhead drains budget without advancing the task.
	taskElapsed := elapsed
	if core.overheadUntil > core.runStart {
		ovh := core.overheadUntil - core.runStart
		if ovh > elapsed {
			ovh = elapsed
		}
		taskElapsed -= ovh
	}

	task := core.curTask
	if s.rec != nil {
		name := ""
		if task != nil {
			name = task.spec.ID
		}
		s.rec.Record(trace.Event{
			Type: trace.EvExecSlice, Time: now, Core: core.id,
			VCPU: v.spec.ID, Task: name,
			Start: core.runStart, Budget: v.remaining,
		})
	}

	if task != nil && taskElapsed > 0 {
		task.remaining -= taskElapsed
		if s.reg != nil {
			if rate := s.cfg.MemRate[task.spec.ID]; rate > 0 {
				perTick := rate / float64(timeunit.TicksPerMilli)
				exact := taskElapsed.Count()*perTick + core.reqCarry
				whole := math.Floor(exact)
				core.reqCarry = exact - whole
				s.reg.RequestN(core.id, int64(whole))
			}
		}
		if task.remaining <= 0 {
			s.completeTask(task)
			core.curTask = nil
		}
	}
	core.runStart = now
	s.syncVCPUReady(v, false) // the budget decrement may have drained the VCPU
}

// completeTask marks the current job finished.
func (s *Simulator) completeTask(task *taskState) {
	task.remaining = 0
	task.active = false
	task.completed++
	s.syncTaskReady(task, false)
	s.syncVCPUReady(task.vcpu, false)
	now := s.engine.Now()
	if late := now - task.deadline; late > task.maxLate {
		task.maxLate = late
	}
	// Response time relative to the job's release (deadline - period for
	// implicit-deadline tasks). Release desynchronization shows up here as
	// an inflated worst-case response — the abstraction overhead the
	// synchronization hypercall removes.
	resp := now - (task.deadline - task.period)
	if resp > task.maxResp {
		task.maxResp = resp
	}
	if s.cfg.CollectResponses {
		if task.responses == nil {
			task.responses = &stats.Sample{}
		}
		task.responses.Add(resp.Millis())
	}
	if s.rec != nil {
		s.rec.Record(trace.Event{
			Type: trace.EvJobComplete, Time: now,
			Core: task.vcpu.core, VCPU: task.vcpu.spec.ID, Task: task.spec.ID,
			Start: task.deadline - task.period, Deadline: task.deadline,
		})
	}
}

// requestReschedule queues a scheduling pass for the core at the current
// instant, after all simultaneous releases and replenishments have been
// processed (sim.PrioSchedule orders it last). Repeated requests coalesce,
// matching a real scheduler that handles one interrupt batch with one
// scheduling decision.
func (s *Simulator) requestReschedule(core *coreState) {
	if core.needsResched {
		return
	}
	core.needsResched = true
	s.engine.At(s.engine.Now(), sim.PrioSchedule, func() {
		core.needsResched = false
		s.doSchedule(core)
	})
}

// doSchedule is the core-local scheduling pass of the modified RTDS
// scheduler: charge the outgoing slice, pick the next VCPU by EDF with the
// deterministic tie-breaking rule (earliest deadline, then smaller period,
// then smaller VCPU index), pick its task by EDF, and start the slice.
// Throttled cores run nothing until the BW refiller reinstates them.
func (s *Simulator) doSchedule(core *coreState) {
	s.charge(core)

	var next *vcpuState
	var nextTask *taskState
	s.measure(OvSchedule, func() {
		core.schedInvocations++
		if !core.throttled {
			next = s.pickVCPU(core)
			if next != nil {
				nextTask = s.pickTask(next)
			}
		}
	})

	prev := core.current
	switched := next != prev
	if switched {
		s.measure(OvContextSwitch, func() {
			core.contextSwitches++
			// A real context switch saves and restores VCPU state; the
			// bookkeeping below is this simulator's equivalent.
			core.current = next
		})
		if s.rec != nil {
			ev := trace.Event{
				Type: trace.EvContextSwitch,
				Time: s.engine.Now(), Core: core.id,
			}
			if next != nil {
				ev.VCPU = next.spec.ID
				if nextTask != nil {
					ev.Task = nextTask.spec.ID
				}
			}
			if prev != nil {
				ev.From = prev.spec.ID
			}
			s.rec.Record(ev)
		}
	} else {
		core.current = next
	}
	core.curTask = nextTask
	core.runStart = s.engine.Now()
	core.sliceGen++
	core.overheadUntil = core.runStart

	if next == nil {
		return
	}

	// Injected context-switch overhead: the slice's first ticks drain
	// budget without task progress (see Config.ContextSwitchCost).
	var overhead timeunit.Ticks
	if switched && s.cfg.ContextSwitchCost > 0 {
		overhead = s.cfg.ContextSwitchCost
		if overhead > next.remaining {
			overhead = next.remaining
		}
		core.overheadUntil = core.runStart + overhead
	}

	dur := next.remaining
	if nextTask != nil && overhead+nextTask.remaining < dur {
		dur = overhead + nextTask.remaining
	}
	if d := s.ticksUntilThrottle(core, nextTask); d >= 0 && overhead+d < dur {
		dur = overhead + d
	}
	if dur <= 0 {
		dur = 1 // defensive: always make progress
	}
	gen := core.sliceGen
	s.engine.After(dur, sim.PrioDefault, func() {
		if core.sliceGen == gen {
			s.sliceEnd(core)
		}
	})
}

// ticksUntilThrottle bounds the slice by the instant the core's memory
// request budget will overflow, or -1 when regulation does not bound it.
func (s *Simulator) ticksUntilThrottle(core *coreState, task *taskState) timeunit.Ticks {
	if s.reg == nil || task == nil {
		return -1
	}
	rate := s.cfg.MemRate[task.spec.ID]
	if rate <= 0 {
		return -1
	}
	left := s.reg.Remaining(core.id)
	if s.cfg.BWBudgets[core.id] == 0 {
		return -1
	}
	perTick := rate / float64(timeunit.TicksPerMilli)
	d := timeunit.FromCount(math.Ceil((float64(left) - core.reqCarry) / perTick))
	if d < 1 {
		d = 1
	}
	return d
}

// sliceEnd fires when the running slice exhausts its bound (task
// completion, budget exhaustion, or throttle instant).
func (s *Simulator) sliceEnd(core *coreState) {
	s.requestReschedule(core)
}

// pickVCPU returns the EDF-minimal runnable VCPU on the core: released,
// with budget remaining, and either holding an active task or required to
// consume budget while idle (well-regulated servers). Ties break first by
// smaller period, then by smaller VCPU index — the deterministic rule that
// makes well-regulated execution reproducible (Section 3.2). The default
// implementation peeks at the core's ready heap; Config.LinearDispatch
// selects the reference scan over all VCPUs instead.
func (s *Simulator) pickVCPU(core *coreState) *vcpuState {
	if s.cfg.LinearDispatch {
		return pickVCPULinear(core)
	}
	if len(core.ready) == 0 {
		return nil
	}
	return core.ready[0]
}

// pickVCPULinear is the reference linear-scan dispatch, kept as the oracle
// for differential tests (TestHeapAndLinearDispatchIdentical).
func pickVCPULinear(core *coreState) *vcpuState {
	var best *vcpuState
	for _, v := range core.vcpus {
		if !v.released || v.remaining <= 0 {
			continue
		}
		if !v.idleConsume() && !hasActiveTask(v) {
			continue
		}
		if best == nil || vcpuLess(v, best) {
			best = v
		}
	}
	return best
}

func hasActiveTask(v *vcpuState) bool {
	for _, t := range v.tasks {
		if t.active {
			return true
		}
	}
	return false
}

// vcpuLess is the EDF order with vC2M's deterministic tie-breaking.
func vcpuLess(a, b *vcpuState) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.period != b.period {
		return a.period < b.period
	}
	return a.spec.Index < b.spec.Index
}

// taskLess is the guest-EDF order: earliest deadline, ties by task index.
func taskLess(a, b *taskState) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.index < b.index
}

// pickTask returns the EDF-minimal active task on the VCPU (the guest OS
// also schedules under EDF), breaking ties by task index. Like pickVCPU it
// peeks at the ready heap unless Config.LinearDispatch selects the scan.
func (s *Simulator) pickTask(v *vcpuState) *taskState {
	if s.cfg.LinearDispatch {
		return pickTaskLinear(v)
	}
	if len(v.readyTasks) == 0 {
		return nil
	}
	return v.readyTasks[0]
}

// pickTaskLinear is the reference linear-scan task dispatch.
func pickTaskLinear(v *vcpuState) *taskState {
	var best *taskState
	for _, t := range v.tasks {
		if !t.active {
			continue
		}
		if best == nil || taskLess(t, best) {
			best = t
		}
	}
	return best
}
