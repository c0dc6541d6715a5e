package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Parent is
// the index of the span that caused it, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, so untraced runs pay one nil check a call.
type tracer struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []span
}

// newTracer returns a tracer for a traced run and nil otherwise.
func newTracer(workload string, on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(parent int, name, layer string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Workload: t.workload, StartNs: now, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}
