package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative
// to the trace start, and the span that caused it (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory for the whole traced run; they are
// written out once, after measuring ends. Safe for concurrent use: the
// serve workloads record from the tick pacer and from HTTP handlers.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: ms(now.Sub(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = ms(now.Sub(t.t0))
}

// add records a span whose interval is already known, ending now.
func (t *tracer) add(name string, parent int, d time.Duration) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: ms(now.Add(-d).Sub(t.t0)), End: ms(now.Sub(t.t0)),
	})
}

// layerTime is one span name's totals: how many spans, their summed
// duration, and their summed self time (duration minus the part covered
// by child spans).
type layerTime struct {
	Count   int
	TotalMS float64
	SelfMS  float64
}

// layers folds the spans into per-name totals.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		d := s.End - s.Start
		lt.Count++
		lt.TotalMS += d
		lt.SelfMS += d - child[s.ID]
		out[s.Name] = lt
	}
	return out
}

// write dumps every span as one JSON line to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
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
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary renders per-name self time, one line each, sorted by name.
func (t *tracer) summary() []string {
	ls := t.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := make([]string, 0, len(names))
	for _, n := range names {
		l := ls[n]
		lines = append(lines, fmt.Sprintf("span %-22s n=%-7d total=%10.1f ms  self=%10.1f ms",
			n, l.Count, l.TotalMS, l.SelfMS))
	}
	return lines
}
