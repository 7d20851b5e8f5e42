package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// job or program share a group; parent links a span to the span whose
// call caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced run; they are written out
// once the run ends. A nil *tracer records nothing, which is how the
// untraced runs use the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(group, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename relabels span id once its outcome is known.
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(group, name string, parent int, fn func()) {
	id := t.begin(group, name, parent)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one parent never overlap here (the benchmark calls
// layers one after another), so subtracting their sum is exact.
func (t *tracer) selfTimes() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// selfByName groups self times (in ms) by span name.
func (t *tracer) selfByName() map[string][]float64 {
	self := t.selfTimes()
	out := make(map[string][]float64)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], ms(max(self[s.ID], 0)))
	}
	return out
}

// selfByGroup sums the self times (ms) of the named spans per group.
func (t *tracer) selfByGroup(names map[string]bool) map[string]float64 {
	self := t.selfTimes()
	out := make(map[string]float64)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if names[s.Name] {
			out[s.Group] += ms(max(self[s.ID], 0))
		}
	}
	return out
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
