package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer records spans around the harness's calls into each layer: name,
// start, end, the span that caused it, and the operation they belong to.
// Spans are kept in memory and written out when the run ends. It is used
// by one goroutine at a time (the traced run is single-client). A nil
// tracer records nothing, so untraced phases share code with traced ones.
type tracer struct {
	start time.Time
	spans []span
	ops   int
}

// span is one timed call. ID is its index+1 in the trace; Parent 0 marks
// an operation's root. Label tags real serving calls hit or miss.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Label   string `json:"label,omitempty"`
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// op opens a new operation and returns its identifier.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: int64(time.Since(t.start))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNs = int64(time.Since(t.start))
}

func (t *tracer) label(id int, label string) {
	if t == nil {
		return
	}
	t.spans[id-1].Label = label
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// selfTimes returns each span's duration minus the part of it its direct
// children cover, indexed like t.spans.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent != 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// durationsUs collects, in microseconds, the duration of every span with
// the given name (and label, when non-empty).
func (t *tracer) durationsUs(name, label string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (label == "" || s.Label == label) {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// writeFile writes one JSON object per span to path, creating its
// directory.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
