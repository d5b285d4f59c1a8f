package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one benchmark
// phase enclosing such calls.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int   `json:"parent"`
	Rows   int64 `json:"rows"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: every method is then a no-op, which is how the
// end-to-end metrics are taken.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, StartNs: now, Parent: parent})
	return len(r.spans) - 1
}

// end closes span id, recording how many rows the call handled.
func (r *recorder) end(id int, rows int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].EndNs = now
	r.spans[id].Rows = int64(rows)
}

// layerTime sums the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	Rows    int64   `json:"rows"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the total minus the part its child spans cover.
	SelfMs float64 `json:"self_ms"`
}

// byLayer folds the spans per name, with self time.
func (r *recorder) byLayer() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	sums := map[string]*layerTime{}
	for i, s := range r.spans {
		lt := sums[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			sums[s.Name] = lt
		}
		lt.Calls++
		lt.Rows += s.Rows
		lt.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		lt.SelfMs += float64(s.EndNs-s.StartNs-r.covered(s, children[i])) / 1e6
	}
	out := make([]layerTime, 0, len(sums))
	for _, lt := range sums {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the child spans, clipped to the
// parent: children of one phase run on several goroutines and overlap.
func (r *recorder) covered(parent span, kids []int) int64 {
	sort.Slice(kids, func(i, j int) bool { return r.spans[kids[i]].StartNs < r.spans[kids[j]].StartNs })
	var total int64
	edge := parent.StartNs
	for _, k := range kids {
		start, end := max(r.spans[k].StartNs, edge), min(r.spans[k].EndNs, parent.EndNs)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// write stores the spans and their per-layer fold as JSON.
func (r *recorder) write(path string) error {
	layers := r.byLayer()
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{layers, r.spans})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
