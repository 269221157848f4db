package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeSpanEvent is one Chrome trace-event record; field order fixes the
// output layout, mirroring the flight recorder's exporter
// (trace.WriteChrome). Timestamps are microseconds relative to the
// trace's earliest span start.
type chromeSpanEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"`
	Dur   int64             `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChrome exports the ended spans as a Chrome trace-event JSON
// document (open in ui.perfetto.dev or chrome://tracing). Each root span
// becomes its own thread track, with descendants nested on the same track
// as complete ("X") duration events — Perfetto renders the hierarchy from
// the overlapping durations. A nil trace writes a valid empty document.
func (t *Trace) WriteChrome(w io.Writer) error {
	spans := t.Snapshot() // nil-safe: a nil trace snapshots to nothing
	if len(spans) == 0 {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`+"\n")
		return err
	}

	// Track assignment: walk each span up to its root; one tid per root.
	byID := make(map[int]SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s SpanRecord) int {
		for s.Parent >= 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break // parent never ended; treat the orphan as a root
			}
			s = p
		}
		return s.ID
	}
	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`+"\n"); err != nil {
		return err
	}
	tids := map[int]int{} // root span ID -> tid
	first := true
	emitMeta := t.TraceContext().Valid()
	emit := func(ev chromeSpanEvent) error {
		prefix := ",\n"
		if first {
			prefix = ""
			first = false
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("obs: chrome encode: %w", err)
		}
		if _, err := io.WriteString(w, prefix); err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	if emitMeta {
		// The trace's W3C identity rides as process metadata, so an
		// exported span file names the distributed trace it belongs to —
		// grep the file for the trace ID a /metrics exemplar pointed at.
		if err := emit(chromeSpanEvent{
			Name: "process_name", Phase: "M", PID: 0, TID: 0,
			Args: map[string]string{"trace_id": t.TraceContext().TraceID},
		}); err != nil {
			return err
		}
	}
	for _, s := range spans {
		root := rootOf(s)
		tid, ok := tids[root]
		if !ok {
			tid = len(tids) + 1
			tids[root] = tid
			if err := emit(chromeSpanEvent{
				Name: "thread_name", Phase: "M", PID: 0, TID: tid,
				Args: map[string]string{"name": byID[root].Name},
			}); err != nil {
				return err
			}
		}
		dur := s.Duration.Microseconds()
		if dur <= 0 {
			dur = 1 // the format treats dur<=0 as malformed
		}
		var args map[string]string
		if len(s.Attrs) > 0 {
			args = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				args[a.Key] = a.Value
			}
		}
		if err := emit(chromeSpanEvent{
			Name: s.Name, Cat: "span", Phase: "X",
			TS:  s.Start.Sub(origin).Microseconds(),
			Dur: dur, PID: 0, TID: tid, Args: args,
		}); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// ReadChromeStages decodes a span document written by WriteChrome and
// returns the sorted set of span stage names it contains — the obs-smoke
// golden check reads exported files back through this.
func ReadChromeStages(r io.Reader) ([]string, error) {
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: decoding span document: %w", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			seen[ev.Name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen { //vc2m:ordered keys are sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
