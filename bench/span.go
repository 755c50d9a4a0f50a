package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// A span is one timed call into a layer's public API, made from this
// package. Parent links are logical, not temporal: where one public call
// contains another layer's work (Observe contains Parse), the inner call
// is timed separately on the same input and recorded as a child, so the
// outer span's self time is its duration minus its children's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // rootSpan, detachedSpan, or a span ID
	Req    int    `json:"req"`    // batch or round number the span belongs to
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Share is the part of this span's duration charged to its parent,
	// for an inner call the outer one makes only for some inputs
	// (SignatureOf runs only when Observe inserts a new statement).
	Share float64 `json:"share"`
	// Reported marks a duration the program reported about itself (an
	// obs.Profiler phase) instead of one measured around a call.
	Reported bool `json:"reported,omitempty"`
}

const (
	rootSpan     = -1 // part of the in-process wall time
	detachedSpan = -2 // a per-call cost probe outside the wall partition
)

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer collects spans in memory. A nil tracer records nothing, which is
// the untraced pass.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs fn inside a span and returns the span's ID (rootSpan on a nil
// tracer, so children of an untraced call are no-ops too).
func (t *tracer) time(name string, parent, req int, fn func()) int {
	if t == nil {
		fn()
		return rootSpan
	}
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	return t.add(span{Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end), Share: 1})
}

// reported records a duration the program measured itself.
func (t *tracer) reported(name string, parent, req int, d time.Duration) int {
	if t == nil {
		return rootSpan
	}
	now := int64(time.Since(t.t0))
	return t.add(span{Parent: parent, Req: req, Name: name, Start: now - int64(d), End: now, Share: 1, Reported: true})
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// setShare charges only part of span id to its parent.
func (t *tracer) setShare(id int, share float64) {
	if t != nil && id >= 0 {
		t.spans[id].Share = share
	}
}

// totals sums durations by span name.
func totals(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// durations returns the durations of the spans called name, in ms.
func durations(spans []span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out.add(s.dur())
		}
	}
	return out
}

// counts counts spans by name.
func counts(spans []span) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		out[s.Name]++
	}
	return out
}

// spanSelfTimes returns each span's duration minus the charged duration of
// its child spans, indexed by span ID. It can come out negative when the
// children, timed on their own, ran slower than they did inside the parent.
func spanSelfTimes(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] += s.dur()
		if s.Parent >= 0 {
			out[s.Parent] -= time.Duration(float64(s.dur()) * s.Share)
		}
	}
	return out
}

// selfTimes sums self time by span name. Detached spans are left out.
// Callers clamp after summing.
func selfTimes(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for id, d := range spanSelfTimes(spans) {
		if spans[id].Parent != detachedSpan {
			out[spans[id].Name] += d
		}
	}
	return out
}

// selfSamples returns the self time of every span called name, in ms.
func selfSamples(spans []span, name string) samples {
	var out samples
	for id, d := range spanSelfTimes(spans) {
		if spans[id].Name == name {
			out.add(d)
		}
	}
	return out
}

// coveragePct is the share of the in-process wall time (the root spans)
// that non-negative per-layer self times account for.
func coveragePct(spans []span) float64 {
	var wall time.Duration
	for _, s := range spans {
		if s.Parent == rootSpan {
			wall += s.dur()
		}
	}
	if wall == 0 {
		return 0
	}
	byLayer := map[string]time.Duration{}
	for name, d := range selfTimes(spans) {
		l, _, _ := strings.Cut(name, ".")
		byLayer[l] += d
	}
	var covered time.Duration
	for _, d := range byLayer {
		if d > 0 {
			covered += d
		}
	}
	return 100 * float64(covered) / float64(wall)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
