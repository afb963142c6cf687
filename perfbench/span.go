package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public entry point. Spans of one op share Op; set-up
// spans carry a negative Op, one per set-up repetition.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span from timestamps taken elsewhere, such as the
// submitted/started/finished times a daemon reports.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// selfMS returns, per span name, the mean self time in milliseconds per
// op (or per set-up repetition) that has such a span. A span's self time
// is its duration minus the part its child spans cover.
func (t *tracer) selfMS() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	total := make(map[string]int64)
	ops := make(map[string]map[int]bool)
	for i, s := range t.spans {
		total[s.Name] += self[i]
		if ops[s.Name] == nil {
			ops[s.Name] = make(map[int]bool)
		}
		ops[s.Name][s.Op] = true
	}
	out := make(map[string]float64, len(total))
	for name, ns := range total {
		out[name] = float64(ns) / 1e6 / float64(len(ops[name]))
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
