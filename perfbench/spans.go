package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, seen from the benchmark.
type span struct {
	Name   string
	Op     int // the cell, decision or pass the span belongs to
	Parent int // index of the enclosing span, -1 at the top
	Start  time.Duration
	End    time.Duration
}

// tracer records spans in memory, from one goroutine. Untraced passes
// have none: their *obs is nil, and obs does the nil checks.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation id; spans begun from now on carry it.
func (t *tracer) nextOp() { t.op++ }

// begin opens a span and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0)})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	t.spans[i].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// layerTime is a span name's total and self time: self is the duration
// minus the part its child spans cover.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func (t *tracer) selfTimes() []layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - child[i]
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// durations returns the durations of every span with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, the format internal/trace writes; Perfetto opens both.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // µs
	Dur  float64        `json:"dur,omitempty"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// events converts the spans to Chrome trace_event complete events of one
// process.
func (t *tracer) events(cat string, pid int) []chromeEvent {
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: pid, Tid: 1,
			Args: map[string]any{"span": i, "parent": s.Parent, "op": s.Op},
		})
	}
	return evs
}
