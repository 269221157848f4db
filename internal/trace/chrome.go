package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteChrome exports an event stream as a Chrome trace-event JSON
// document, which ui.perfetto.dev and chrome://tracing open directly. The
// mapping:
//
//   - each core becomes a process (pid = core index, named "core N");
//   - each (core, VCPU) pair becomes a thread track (named after the
//     VCPU), so per-VCPU execution reads as one lane per server;
//   - EvExecSlice becomes a complete ("X") duration event named after the
//     running task, or "(budget idle)" for idle budget consumption;
//   - EvDeadlineMiss becomes a thread-scoped instant marker on the
//     missing task's lane; EvThrottle a process-scoped instant marker on
//     the throttled core.
//
// Other event types carry no visual information beyond the above and are
// skipped; export them with WriteJSONL when completeness matters. Ticks
// are microseconds, which is exactly the "ts"/"dur" unit the format
// expects, so timestamps pass through unconverted. An empty stream is
// still a valid, empty trace document.
func WriteChrome(w io.Writer, events []Event) error {
	c := &chromeWriter{w: bufio.NewWriter(w), tids: map[chromeKey]int{}}
	for _, ev := range events {
		c.record(ev)
	}
	if c.err != nil {
		return c.err
	}
	tail := "\n]}\n"
	if !c.started {
		tail = `{"displayTimeUnit":"ms","traceEvents":[]}` + "\n"
	}
	_, _ = c.w.WriteString(tail)
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("trace: chrome write: %w", err)
	}
	return nil
}

// chromeWriter is WriteChrome's encoder state: the (core, VCPU) -> tid
// table and the first encoding error.
type chromeWriter struct {
	w       *bufio.Writer
	tids    map[chromeKey]int
	started bool
	err     error
}

type chromeKey struct {
	core int
	vcpu string
}

// chromeEvent is one trace-event record; field order fixes the output
// byte-for-byte, which the golden-file test relies on.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func (c *chromeWriter) record(ev Event) {
	switch ev.Type {
	case EvExecSlice:
		name := ev.Task
		if name == "" {
			name = "(budget idle)"
		}
		dur := int64(ev.Time - ev.Start)
		if dur <= 0 {
			dur = 1 // the format treats dur<=0 as malformed
		}
		c.emit(chromeEvent{
			Name: name, Cat: "exec", Phase: "X",
			TS: int64(ev.Start), Dur: dur,
			PID: ev.Core, TID: c.tid(ev.Core, ev.VCPU),
		})
	case EvDeadlineMiss:
		c.emit(chromeEvent{
			Name: "miss " + ev.Task, Cat: "deadline", Phase: "i",
			TS: int64(ev.Time), PID: ev.Core, TID: c.tid(ev.Core, ev.VCPU),
			Scope: "t",
			Args:  map[string]any{"demand_left_us": int64(ev.Demand)},
		})
	case EvThrottle:
		c.emit(chromeEvent{
			Name: "throttle", Cat: "regulation", Phase: "i",
			TS: int64(ev.Time), PID: ev.Core, TID: c.tid(ev.Core, ev.VCPU),
			Scope: "p",
		})
	}
}

// tid returns the thread id for the (core, vcpu) pair, emitting the
// process/thread naming metadata on first sight.
func (c *chromeWriter) tid(core int, vcpu string) int {
	if vcpu == "" {
		vcpu = "(none)"
	}
	k := chromeKey{core, vcpu}
	if tid, ok := c.tids[k]; ok {
		return tid
	}
	tid := len(c.tids) + 1
	c.tids[k] = tid
	// Name the process once, on its first thread.
	first := true
	for other := range c.tids { //vc2m:ordered existence scan; no order dependence
		if other.core == core && other != k {
			first = false
			break
		}
	}
	if first {
		c.emit(chromeEvent{
			Name: "process_name", Phase: "M", PID: core,
			Args: map[string]any{"name": fmt.Sprintf("core %d", core)},
		})
	}
	c.emit(chromeEvent{
		Name: "thread_name", Phase: "M", PID: core, TID: tid,
		Args: map[string]any{"name": vcpu},
	})
	return tid
}

func (c *chromeWriter) emit(ev chromeEvent) {
	if c.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		c.err = fmt.Errorf("trace: chrome encode: %w", err)
		return
	}
	if !c.started {
		_, _ = c.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
		c.started = true
	} else {
		_, _ = c.w.WriteString(",\n")
	}
	_, _ = c.w.Write(data) // a bufio.Writer keeps its first write error for Flush
}
