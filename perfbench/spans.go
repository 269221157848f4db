package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. The benchmark records spans around
// its own calls into the program; the program itself is not instrumented.
type span struct {
	Req    string `json:"req"`    // request ID shared by all spans of one request
	ID     int    `json:"id"`     // index within the request
	Parent int    `json:"parent"` // ID of the enclosing span, -1 for the request's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every recorded request's spans in memory until the run
// ends. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	reqs  [][]span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reqTrace collects one request's spans without locking; commit hands
// them to the tracer. A nil *reqTrace (tracing off) records nothing.
type reqTrace struct {
	t     *tracer
	req   string
	spans []span
}

func (t *tracer) request(req string) *reqTrace {
	if t == nil {
		return nil
	}
	return &reqTrace{t: t, req: req}
}

// begin opens a span under parent and returns its ID.
func (r *reqTrace) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Req: r.req, ID: len(r.spans), Parent: parent, Name: name,
		Start: int64(time.Since(r.t.epoch))})
	return len(r.spans) - 1
}

func (r *reqTrace) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t.epoch))
}

func (r *reqTrace) commit() {
	if r == nil {
		return
	}
	r.t.mu.Lock()
	r.t.reqs = append(r.t.reqs, r.spans)
	r.t.mu.Unlock()
}

// durations returns the duration in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, spans := range t.reqs {
		for _, s := range spans {
			if s.Name == name {
				out = append(out, ms(s.dur()))
			}
		}
	}
	return out
}

// layerTime is one span name's time summed over requests: total is the
// spans' duration, self the part not covered by their direct children.
type layerTime struct {
	total, self time.Duration
	count       int
}

// layerTimes sums total and self time per span name, and checks that the
// self times of each request's spans add up to its root's duration — the
// property that makes the per-layer self times plus the remainder (the
// root's self time) account for the whole request.
func (t *tracer) layerTimes() (map[string]*layerTime, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*layerTime{}
	for _, spans := range t.reqs {
		children := make([]time.Duration, len(spans))
		for _, s := range spans {
			if s.Parent >= 0 {
				children[s.Parent] += s.dur()
			}
		}
		var selfSum, rootSum time.Duration
		for i, s := range spans {
			lt := out[s.Name]
			if lt == nil {
				lt = &layerTime{}
				out[s.Name] = lt
			}
			self := s.dur() - children[i]
			lt.total += s.dur()
			lt.self += self
			lt.count++
			selfSum += self
			if s.Parent < 0 {
				rootSum += s.dur()
			}
		}
		if selfSum != rootSum {
			return nil, fmt.Errorf("request %s: self times sum to %v, roots to %v", spans[0].Req, selfSum, rootSum)
		}
	}
	return out, nil
}

// write stores every span as one JSON line, after a header line carrying
// the machine stamp.
func (t *tracer) write(path string, stamp map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"machine": stamp})
	t.mu.Lock()
	for _, spans := range t.reqs {
		for _, s := range spans {
			if err == nil {
				err = enc.Encode(s)
			}
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
