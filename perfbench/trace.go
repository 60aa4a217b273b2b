package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// The tracer records spans around the benchmark's calls into each
// layer's exported functions. Spans stay in memory and are written out
// once, when the run ends. A nil *tracer records nothing, so untraced
// runs pay one nil check per span.

// span is one completed interval. Spans of one operation share Op (the
// ID of the operation's root span); Parent is the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is an open span.
type spanRef struct {
	id, parent, op int64
	name           string
	start          int64
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens the root span of a new operation.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return spanRef{id: id, op: id, name: name, start: int64(time.Since(t.t0))}
}

// child opens a span caused by parent, in parent's operation.
func (t *tracer) child(parent spanRef, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return spanRef{id: id, parent: parent.id, op: parent.op, name: name, start: int64(time.Since(t.t0))}
}

// end closes s.
func (t *tracer) end(s spanRef) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name, Start: s.start, End: end})
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int
	TotNS int64 // summed durations
}

func (s spanStat) meanUS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotNS) / float64(s.Count) / 1e3
}

// stats aggregates every recorded span by name.
func (t *tracer) stats() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]spanStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotNS += s.End - s.Start
		out[s.Name] = st
	}
	return out
}

// write stores the spans as JSON lines at path, at most limit of them
// (the first recorded), followed by a line counting any left out.
func (t *tracer) write(path string, limit int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(limit, len(t.spans))
	for _, s := range t.spans[:n] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if dropped := len(t.spans) - n; dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
