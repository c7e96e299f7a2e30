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

// span is one timed call the benchmark made into a layer: which layer call
// it was, the request it belongs to (trace), the span that caused it
// (parent, 0 for a root), when it started and ended, and the counts recorded
// at the same boundary.
type span struct {
	ID     uint64           `json:"id"`
	Parent uint64           `json:"parent,omitempty"`
	Trace  uint64           `json:"trace"`
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory; write puts them out once the run is
// over, so no I/O happens while anything is being timed.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	seq    uint64
	spans  []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span. trace 0 starts a new request whose trace id is the
// span's own id.
func (t *tracer) begin(trace, parent uint64, name string) *span {
	t.mu.Lock()
	t.seq++
	id := t.seq
	t.mu.Unlock()
	if trace == 0 {
		trace = id
	}
	return &span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Since(t.origin)}
}

// end closes s with its counts and keeps it.
func (t *tracer) end(s *span, counts map[string]int64) {
	s.End = time.Since(t.origin)
	s.Counts = counts
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span and returns the span. On a nil tracer it only
// runs f.
func (t *tracer) timed(trace, parent uint64, name string, f func() map[string]int64) *span {
	if t == nil {
		f()
		return nil
	}
	s := t.begin(trace, parent, name)
	counts := f()
	t.end(s, counts)
	return s
}

// byName returns the closed spans called name, in closing order.
func (t *tracer) byName(name string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanMS is the mean duration of the spans called name in milliseconds; 0
// when there are none.
func (t *tracer) meanMS(name string) float64 {
	var v []float64
	for _, s := range t.byName(name) {
		v = append(v, ms(s.dur()))
	}
	return mean(v)
}

// sumCount totals counter key over the spans called name.
func (t *tracer) sumCount(name, key string) int64 {
	var n int64
	for _, s := range t.byName(name) {
		n += s.Counts[key]
	}
	return n
}

// children groups the closed spans by parent.
func (t *tracer) children() map[uint64][]*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64][]*span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// write puts every span out as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
