package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing, recorded from outside the program: every span wraps one
// call into a public function of a layer (system.Build, Fabric.Drive,
// Coordinator.ServeHTTP, ...). Spans stay in memory and are written out
// once, when the run ends. A nil *tracer records nothing, so untraced code
// paths run the same calls with no bookkeeping.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	tr *tracer
}

type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; finish closes and records it. parent is 0 for a root
// span; req groups the spans of one operation or request.
func (t *tracer) begin(name string, parent, req int64) *span {
	if t == nil {
		return nil
	}
	return &span{
		ID: t.next.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)), tr: t,
	}
}

// id is the span's identifier, 0 for a nil span.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// finish closes the span and returns its duration (0 for a nil span).
func (s *span) finish() time.Duration {
	if s == nil {
		return 0
	}
	s.End = int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, *s)
	s.tr.mu.Unlock()
	return time.Duration(s.End - s.Start)
}

// snapshot returns the recorded spans in start order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// layerTime is one span name's aggregate: how many spans, their total
// duration, and their self time — duration minus the time covered by their
// child spans.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) layers() []layerTime {
	spans := t.snapshot()
	childTime := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	agg := map[string]*layerTime{}
	var order []string
	for _, s := range spans {
		l := agg[s.Name]
		if l == nil {
			l = &layerTime{name: s.Name}
			agg[s.Name] = l
			order = append(order, s.Name)
		}
		d := time.Duration(s.End - s.Start)
		self := d - childTime[s.ID]
		if self < 0 {
			self = 0 // concurrent children can cover more than the parent's span
		}
		l.count++
		l.total += d
		l.self += self
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	return out
}

// writeFile writes every span as one JSON line, preceded by a header line
// carrying the host stamp.
func (t *tracer) writeFile(path string, header map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.snapshot() {
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

// noteLayers adds the per-layer self-time table to the report notes.
func (t *tracer) noteLayers(rep *report) {
	for _, l := range t.layers() {
		rep.note("layer %-28s count=%-6d total_ms=%-12.3f self_ms=%.3f", l.name, l.count,
			float64(l.total)/1e6, float64(l.self)/1e6)
	}
}
