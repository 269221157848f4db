package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes events as JSON lines, one object per line, through
// a buffered writer, and returns the first encoding or write error.
// ReadJSONL is the inverse.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("trace: jsonl encode: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: jsonl flush: %w", err)
	}
	return nil
}

// ReadJSONL decodes a JSON-lines stream written by WriteJSONL. Blank
// lines are skipped; a malformed line aborts with an error naming its
// line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: jsonl read: %w", err)
	}
	return events, nil
}
