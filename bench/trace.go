package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Spans of one operation share Op, the id of the
// operation's root span; a root span has Parent 0.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	Kind    string             `json:"kind,omitempty"` // request kind of a server.request span
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until write. A nil *tracer is tracing
// off: begin returns 0 and end does nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(parent int, name, kind string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Kind: kind, StartNs: now})
	return id
}

func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = now
	t.spans[id-1].Counts = counts
}

// write stores the spans as <dir>/trace-<workload>.json together with
// each span name's total self time: a span's duration minus the
// durations of its children.
func (t *tracer) write(dir, workload string) error {
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += float64(s.EndNs-s.StartNs) / 1e6
		if s.Parent != 0 {
			self[t.spans[s.Parent-1].Name] -= float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	doc := struct {
		Workload string             `json:"workload"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, self, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
