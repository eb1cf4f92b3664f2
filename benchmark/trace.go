package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// operation share Op; Parent is the span of the enclosing depth for
// the same op (0 for none), so one op's spans line up across the
// ladder's depths. Calls covers more than one call where a probe
// times a batch because a single call is shorter than a clock read.
type span struct {
	Op     int    `json:"op"`
	Span   int    `json:"span"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

// tracer keeps the harness's spans in memory and writes them out when
// the workload ends. It is used from one goroutine at a time. Every
// per-layer timing is computed from these spans.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(op, parent int, name string) int {
	t.spans = append(t.spans, span{Op: op, Span: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// batch records one span around calls invocations of fn's body.
func (t *tracer) batch(op int, name string, calls int, fn func()) {
	id := t.begin(op, 0, name)
	fn()
	t.end(id)
	t.spans[id-1].Calls = calls
}

// perCall returns, for every span with the given name in recording
// order, its duration in nanoseconds divided by the calls it covers.
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(max(s.Calls, 1)))
		}
	}
	return out
}

// total returns the summed duration of the named spans, in ns.
func (t *tracer) total(name string) float64 {
	var sum float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			sum += float64(s.End - s.Start)
		}
	}
	return sum
}

// write stores the spans as one JSON array, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	_, _ = w.WriteString("[\n")
	for i := range t.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
