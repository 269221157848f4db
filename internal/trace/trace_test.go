package trace

import (
	"reflect"
	"testing"

	"vc2m/internal/timeunit"
)

func TestEventTypeNames(t *testing.T) {
	for ty := EventType(0); ty < numEventTypes; ty++ {
		name := ty.String()
		if name == "" {
			t.Fatalf("type %d has no name", ty)
		}
		back, err := ParseEventType(name)
		if err != nil {
			t.Fatalf("ParseEventType(%q): %v", name, err)
		}
		if back != ty {
			t.Errorf("round trip %q: got %v want %v", name, back, ty)
		}
	}
	if _, err := ParseEventType("nope"); err == nil {
		t.Error("ParseEventType accepted an unknown name")
	}
}

func mkEvents(n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{
			Type: EventType(i % int(numEventTypes)),
			Time: timeunit.Ticks(i * 10),
			Core: i % 4,
			VCPU: "v",
		}
	}
	return events
}

func TestMemoryUnbounded(t *testing.T) {
	m := NewMemory()
	in := mkEvents(100)
	for _, ev := range in {
		m.Record(ev)
	}
	if !reflect.DeepEqual(m.Events(), in) {
		t.Error("events differ from input")
	}
}

func TestCountByType(t *testing.T) {
	events := []Event{
		{Type: EvJobRelease}, {Type: EvJobRelease}, {Type: EvDeadlineMiss},
	}
	got := CountByType(events)
	if got["job_release"] != 2 || got["deadline_miss"] != 1 {
		t.Errorf("counts: %v", got)
	}
}
