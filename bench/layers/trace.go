// Package layers is the traced run: it calls each package's exported
// functions in process, on the corpora the end-to-end stages send, and
// records a span around every call. It is the only part of the
// benchmark that imports the layers, so an internal API change can break
// it and nothing else. Spans come from the benchmark's own files, around
// the calls; spans inside tierd are a later change.
package layers

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"tieredpricing/bench/e2e"
)

// Span is one timed call (or one timed loop of Count calls) into a layer.
type Span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start"` // nanoseconds since the trace began
	End      int64  `json:"end"`
	Parent   int    `json:"parent"` // 0 = none
	Workload string `json:"workload"`
	Count    int    `json:"count"`  // calls the span covers
	Allocs   uint64 `json:"allocs"` // heap allocations during the span
}

// Trace keeps spans in memory until the run ends.
type Trace struct {
	began    time.Time
	workload string
	spans    []Span
}

// NewTrace starts a trace.
func NewTrace() *Trace { return &Trace{began: time.Now()} }

// span times fn as count calls of the layer boundary name and returns
// the recorded span. parent links a span to the one it decomposes.
func (t *Trace) span(name string, parent, count int, fn func()) Span {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Since(t.began)
	fn()
	end := time.Since(t.began)
	runtime.ReadMemStats(&after)
	s := Span{
		ID: len(t.spans) + 1, Name: name, Start: int64(start), End: int64(end),
		Parent: parent, Workload: t.workload, Count: count,
		Allocs: after.Mallocs - before.Mallocs,
	}
	t.spans = append(t.spans, s)
	return s
}

// WriteFile writes the spans as JSON.
func (t *Trace) WriteFile(path string) error {
	out, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// perCall is a span's nanoseconds per call.
func (s Span) perCall() float64 { return float64(s.End-s.Start) / float64(s.Count) }

// quiet repeats a lower-is-better measurement reps times and returns
// its quiet decile: the box's noise only ever slows a repetition down
// (see bench/e2e/stats.go).
func quiet(reps int, measure func() float64) float64 {
	vals := make([]float64, reps)
	for i := range vals {
		vals[i] = measure()
	}
	return quietOf(vals)
}

// quietOf is the quiet decile of repetitions already taken.
func quietOf(vals []float64) float64 { return e2e.Quiet(vals, false) }
