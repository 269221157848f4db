package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vc2m/internal/timeunit"
)

// TestJSONLRoundTrip: WriteJSONL -> ReadJSONL reproduces the stream exactly,
// including every populated field.
func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Type: EvJobRelease, Time: 0, Core: 1, VCPU: "vm/flat-t1", Task: "t1",
			Deadline: 10000, Demand: 3000, WCET: 3000},
		{Type: EvVCPUReplenish, Time: 0, Core: 1, VCPU: "vm/flat-t1",
			Budget: 3000, Deadline: 10000},
		{Type: EvContextSwitch, Time: 0, Core: 1, VCPU: "vm/flat-t1", Task: "t1", From: "vm/flat-t0"},
		{Type: EvExecSlice, Time: 3000, Core: 1, VCPU: "vm/flat-t1", Task: "t1",
			Start: 0, Budget: 0},
		{Type: EvThrottle, Time: 500, Core: 0, VCPU: "v0"},
		{Type: EvBWReplenish, Time: 1000, Core: 0, Throttled: true},
		{Type: EvJobComplete, Time: 3000, Core: 1, VCPU: "vm/flat-t1", Task: "t1",
			Start: 0, Deadline: 10000},
		{Type: EvDeadlineMiss, Time: 10000, Core: 1, VCPU: "vm/flat-t1", Task: "t1",
			Deadline: 10000, Demand: timeunit.Ticks(42)},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(in) {
		t.Errorf("%d lines written, want %d", lines, len(in))
	}

	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestEventWireByteIdentity: each event line re-encodes to the same
// bytes after a round trip, and every tick-valued field names its unit
// in the tag so captures cannot be misread as milliseconds.
func TestEventWireByteIdentity(t *testing.T) {
	in := Event{
		Type: EvJobRelease, Time: 123456, Core: 2, VCPU: "vm0/v1", Task: "t3",
		Start: 1, Deadline: 133456, Budget: 2500, Demand: 2000, WCET: 1800,
	}
	first, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	if back != in {
		t.Fatalf("event changed in round trip:\n in: %+v\nout: %+v", in, back)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("event re-encoding drifted:\nfirst:  %s\nsecond: %s", first, second)
	}
	for _, want := range []string{`"t_ticks"`, `"start_ticks"`, `"deadline_ticks"`, `"budget_ticks"`, `"demand_ticks"`, `"wcet_ticks"`} {
		if !strings.Contains(string(first), want) {
			t.Errorf("event wire encoding missing unit-suffixed tag %s: %s", want, first)
		}
	}
}

func TestReadJSONLSkipsBlanksRejectsGarbage(t *testing.T) {
	good := `{"type":"throttle","t_ticks":5,"core":0}` + "\n\n" + `{"type":"bw_replenish","t_ticks":9,"core":0,"throttled":true}` + "\n"
	events, err := ReadJSONL(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Type != EvThrottle || !events[1].Throttled {
		t.Fatalf("parsed %+v", events)
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"type":"bogus","t_ticks":1,"core":0}` + "\n")); err == nil {
		t.Error("unknown event type accepted")
	}
}

// failAfterWriter accepts the first n bytes, then fails every write.
type failAfterWriter struct {
	remaining int
}

var errDiskFull = errors.New("disk full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if len(p) > w.remaining {
		n := w.remaining
		w.remaining = 0
		return n, errDiskFull
	}
	w.remaining -= len(p)
	return len(p), nil
}

// TestWritersReportWriteErrors: both batch writers buffer their output,
// so a write error may only surface at the final flush; it must still
// be returned, wrapping the underlying error — a trace file cut short by
// a full disk never reads as success.
func TestWritersReportWriteErrors(t *testing.T) {
	events := goldenEvents()
	for _, window := range []int{0, 10} {
		err := WriteJSONL(&failAfterWriter{remaining: window}, events)
		if !errors.Is(err, errDiskFull) {
			t.Errorf("WriteJSONL into a writer failing after %d bytes: err = %v, want %v", window, err, errDiskFull)
		}
		err = WriteChrome(&failAfterWriter{remaining: window}, events)
		if !errors.Is(err, errDiskFull) {
			t.Errorf("WriteChrome into a writer failing after %d bytes: err = %v, want %v", window, err, errDiskFull)
		}
	}
}
