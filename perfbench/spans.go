package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// recorder keeps spans in memory; they are written out when the run
// ends. A nil *recorder records nothing, so untraced code paths call
// the same methods.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records a finished span with explicit bounds relative to t0.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// time runs f inside a span and returns its duration.
func (r *recorder) time(name, id string, parent int, f func()) time.Duration {
	start := time.Now()
	i := r.begin(name, id, parent)
	f()
	r.end(i)
	return time.Since(start)
}

// merge appends another recorder's spans (from a child process) under
// parent, shifting them so they start at offset on this clock.
func (r *recorder) merge(spans []span, parent int, offset time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range spans {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Start += offset
		s.End += offset
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerSelf sums self time per layer, the span name's prefix before
// its first dot ("trace.spill_write" belongs to layer "trace").
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTime(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self[i]
	}
	return out
}
