// Package trace is the flight recorder of the hypervisor simulator: a
// typed event stream emitted from every scheduler and regulator handler in
// package hypersim. It turns "the task set missed deadlines" into "core 2
// was throttled for 40% of the window in which task t3 missed" — the
// per-event visibility that analysis frameworks for static-partitioning
// interference (SP-IMPact, H-MBR) rely on.
//
// The design mirrors package metrics: a nil Memory recorder costs nothing
// on hot paths (emission sites guard with a single nil check and never
// assemble an Event), and the stream is bit-identical across runs with
// the same seed because the simulator itself is deterministic.
//
// The simulator records into a Memory; a recorded stream is exported
// after the run by one of two batch writers:
//
//   - WriteJSONL: JSON lines, one event per line, with ReadJSONL as its
//     inverse;
//   - WriteChrome: Chrome trace-event JSON (Perfetto-compatible), so any
//     run opens in ui.perfetto.dev with one thread track per (core, VCPU)
//     and instant markers for deadline misses and throttles.
//
// On top of the stream, Diagnose (diagnose.go) reconstructs per-job
// resource deprivation and attributes every deadline miss to a cause.
package trace

import (
	"fmt"

	"vc2m/internal/timeunit"
)

// EventType discriminates the events of the stream.
type EventType uint8

// The event types, one per instrumented handler site in hypersim.
const (
	// EvJobRelease: a task released a job. Carries Deadline, the job's
	// execution Demand and the task's declared WCET (Demand > WCET means
	// an injected overrun).
	EvJobRelease EventType = iota
	// EvJobComplete: a job finished. Start holds the job's release time,
	// Deadline its deadline (Time > Deadline means it completed late).
	EvJobComplete
	// EvDeadlineMiss: a job was unfinished at its deadline. Demand holds
	// the execution still owed at that instant.
	EvDeadlineMiss
	// EvVCPUReplenish: a periodic-server budget replenishment. Budget
	// holds the refilled budget, Deadline the server's new deadline.
	EvVCPUReplenish
	// EvContextSwitch: a different VCPU took the core. VCPU/Task identify
	// the incoming slice (empty when the core goes idle), From the
	// outgoing VCPU (empty when the core was idle).
	EvContextSwitch
	// EvExecSlice: a charged execution slice [Start, Time) of VCPU on
	// Core, running Task (empty while consuming budget idle). Budget
	// holds the VCPU's budget remaining after the slice.
	EvExecSlice
	// EvThrottle: the BW enforcer throttled the core (PC overflow). VCPU
	// names the VCPU that was de-scheduled, if any.
	EvThrottle
	// EvBWReplenish: the BW refiller reset the core's bandwidth budget.
	// Throttled reports whether the core had been throttled this period.
	EvBWReplenish

	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	EvJobRelease:    "job_release",
	EvJobComplete:   "job_complete",
	EvDeadlineMiss:  "deadline_miss",
	EvVCPUReplenish: "vcpu_replenish",
	EvContextSwitch: "context_switch",
	EvExecSlice:     "exec_slice",
	EvThrottle:      "throttle",
	EvBWReplenish:   "bw_replenish",
}

// String returns the snake_case name used in every export format.
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("event_type(%d)", uint8(t))
}

// ParseEventType is the inverse of String.
func ParseEventType(s string) (EventType, error) {
	for i, name := range eventTypeNames {
		if name == s {
			return EventType(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event type %q", s)
}

// MarshalJSON renders the type as its snake_case name.
func (t EventType) MarshalJSON() ([]byte, error) {
	if int(t) >= len(eventTypeNames) {
		return nil, fmt.Errorf("trace: cannot marshal event type %d", uint8(t))
	}
	return []byte(`"` + eventTypeNames[t] + `"`), nil
}

// UnmarshalJSON parses the snake_case name.
func (t *EventType) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("trace: event type must be a JSON string, got %s", data)
	}
	v, err := ParseEventType(string(data[1 : len(data)-1]))
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// Event is one record of the flight-recorder stream. Every event carries
// its type, tick timestamp and core; the remaining fields are populated
// per type as documented on the Ev* constants. The struct is flat (no
// pointers beyond the strings, which alias the simulator's interned IDs)
// so the Memory recorder stores events without per-event allocation.
//
// The JSON tags are the trace wire schema (JSONL captures written by
// vc2m-sim -trace-jsonl and replayed by vc2m-trace). Every tick-valued
// field carries an explicit _ticks suffix so readers in other languages
// cannot mistake simulator ticks (microseconds) for milliseconds; the
// schema is covered by a byte-identity round-trip test.
type Event struct {
	Type EventType      `json:"type"`
	Time timeunit.Ticks `json:"t_ticks"`
	Core int            `json:"core"`
	VCPU string         `json:"vcpu,omitempty"`
	Task string         `json:"task,omitempty"`
	// From is the outgoing VCPU of a context switch.
	From string `json:"from,omitempty"`
	// Start is the slice start (EvExecSlice) or job release (EvJobComplete).
	Start timeunit.Ticks `json:"start_ticks,omitempty"`
	// Deadline is the job's or server's deadline.
	Deadline timeunit.Ticks `json:"deadline_ticks,omitempty"`
	// Budget is the VCPU budget: refilled value on EvVCPUReplenish,
	// remaining value after the slice on EvExecSlice.
	Budget timeunit.Ticks `json:"budget_ticks,omitempty"`
	// Demand is the job's execution demand: the full demand on
	// EvJobRelease, the unfinished remainder on EvDeadlineMiss.
	Demand timeunit.Ticks `json:"demand_ticks,omitempty"`
	// WCET is the task's declared worst-case execution time at the core's
	// allocation (EvJobRelease); Demand exceeding it marks an overrun.
	WCET timeunit.Ticks `json:"wcet_ticks,omitempty"`
	// Throttled reports whether the core had been throttled in the period
	// an EvBWReplenish closes.
	Throttled bool `json:"throttled,omitempty"`
}

// Memory is the simulator's in-memory recorder: it retains the whole
// stream in emission order. A nil *Memory is the disabled state: the
// simulator holds a nil recorder when tracing is off and guards each
// emission site with one pointer check, so no Event is assembled.
type Memory struct {
	events []Event
}

// NewMemory returns an empty recorder.
func NewMemory() *Memory { return &Memory{} }

// Record appends ev. A nil *Memory drops the event: like every hook in
// this repository, a nil receiver is the disabled state.
func (m *Memory) Record(ev Event) {
	if m == nil {
		return
	}
	m.events = append(m.events, ev)
}

// Events returns the recorded events in emission order. Callers must not
// mutate the slice. A nil recorder has no events.
func (m *Memory) Events() []Event {
	if m == nil {
		return nil
	}
	return m.events
}

// CountByType tallies a stream per event type — the cheap summary used by
// the CLI and by tests asserting stream shape.
func CountByType(events []Event) map[string]int {
	out := make(map[string]int, numEventTypes)
	for _, ev := range events {
		out[ev.Type.String()]++
	}
	return out
}
