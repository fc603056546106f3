package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer. Times are host
// nanoseconds since the tracer's origin; Parent indexes the enclosing
// span, or is -1 for a root.
type span struct {
	Name   string `json:"name"`
	Run    string `json:"run"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one traced pass. Every method is a
// no-op on a nil tracer, so untraced passes pay one branch per call.
type tracer struct {
	origin time.Time
	run    string
	spans  []span
}

// newTracer starts a tracer for one pass. Tracers of one process share
// origin, so their spans share a time base.
func newTracer(origin time.Time, run string) *tracer { return &tracer{origin: origin, run: run} }

// begin opens a span under parent and returns its id for end.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
}

// add records a span whose bounds were observed elsewhere, such as a unit
// the runner timed and reported after it finished.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

// total sums the durations of the spans named name, in milliseconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e6
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap one another; overlapping
// cover counts once.
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered int64
		cur := p.Start // everything before cur is already counted
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// writeSpans stores every traced pass's spans as one JSON array, with
// parents re-indexed into it.
func writeSpans(path string, tracers []*tracer) error {
	var all []span
	for _, t := range tracers {
		base := len(all)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
