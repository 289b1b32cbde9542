package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one
// operation share a trace id. parent is 0 for a span on the operation's
// blocking path (those sum to its latency), -1 for a measurement beside
// the path, and otherwise the span this one is a part of. A part is a
// replay: it is linked by parent id and runs after its parent, not inside
// it, so that measuring it does not lengthen the parent.
type span struct {
	TraceID int    `json:"trace_id"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s *span) ns() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory; they are written out when the pass ends.
// It exists only in the traced pass: the timed run never allocates one.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (1-based index into spans).
func (t *tracer) begin(traceID, parent int, name string) int {
	layer, _, _ := strings.Cut(name, ".")
	t.spans = append(t.spans, span{
		TraceID: traceID,
		Span:    len(t.spans) + 1,
		Parent:  parent,
		Layer:   layer,
		Name:    name,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds() }

// perTrace sums weight(span) nanoseconds per trace and returns the sums
// in microseconds, one per trace that had a span with non-zero weight.
func (t *tracer) perTrace(weight func(s *span) int64) []float64 {
	sums := make(map[int]int64)
	for i := range t.spans {
		if w := weight(&t.spans[i]); w != 0 {
			sums[t.spans[i].TraceID] += w
		}
	}
	out := make([]float64, 0, len(sums))
	for _, ns := range sums {
		out = append(out, float64(ns)/1e3)
	}
	return out
}

// stageUs is, per operation, the time spent in the named stage: an
// operation that touches two shards passes a stage twice and pays for
// both.
func (t *tracer) stageUs(name string) []float64 {
	return t.perTrace(func(s *span) int64 {
		if s.Name == name {
			return s.ns()
		}
		return 0
	})
}

// selfUs is stageUs(name) less the time of those spans' parts: a layer's
// self time is its span minus its children.
func (t *tracer) selfUs(name string) []float64 {
	named := make(map[int]bool)
	for i := range t.spans {
		if t.spans[i].Name == name {
			named[t.spans[i].Span] = true
		}
	}
	return t.perTrace(func(s *span) int64 {
		switch {
		case s.Name == name:
			return s.ns()
		case named[s.Parent]:
			return -s.ns()
		}
		return 0
	})
}

// pathUs is, for each of the given traces, the time of its spans on the
// blocking path.
func (t *tracer) pathUs(traces []int) []float64 {
	want := make(map[int]bool, len(traces))
	for _, id := range traces {
		want[id] = true
	}
	return t.perTrace(func(s *span) int64 {
		if s.Parent == onPath && want[s.TraceID] {
			return s.ns()
		}
		return 0
	})
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

// median of a sample; 0 for an empty one.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile (nearest rank) of v; 0 when empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
