package trace

import "testing"

// TestNilMemorySafe exercises every exported method of a nil recorder —
// the state the simulator holds when tracing is disabled. It pins the
// invariant the nilsafe analyzer enforces statically: a nil recorder is a
// valid no-op.
func TestNilMemorySafe(t *testing.T) {
	var m *Memory
	m.Record(Event{Type: EvExecSlice})
	if evs := m.Events(); evs != nil {
		t.Errorf("nil Memory.Events() = %v, want nil", evs)
	}
}
