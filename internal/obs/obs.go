// Package obs is the tuner's observability layer: a lightweight
// span/event tracer for the relaxation search, a dependency-free
// Prometheus text-format metrics registry, and the glue that turns
// trace events into metrics.
//
// The tracer is nil-safe by design: a nil *Tracer is a valid no-op
// tracer, so instrumented hot paths pay a single pointer comparison
// when tracing is disabled. Callers guard payload construction with
// Enabled():
//
//	if tr.Enabled() {
//		tr.Emit(obs.EvCache, &obs.Cache{Hit: hit, Query: id})
//	}
//
// Events flow into a Sink (JSONL file, in-memory buffer, Prometheus
// metrics, or any fan-out of those). The relaxation step's events carry
// typed payloads (payload.go): the counting sinks read their fields, and
// only a sink that keeps or writes an event renders its field map.
package obs

import (
	"sync"
	"time"
)

// Event types emitted by the relaxation search instrumentation.
const (
	// EvSpanStart / EvSpanEnd bracket one search phase. Span-end events
	// carry elapsed_ms and the optimizer-call attribution of the phase
	// (optimizer_calls, index_requests, view_requests).
	EvSpanStart = "span_start"
	EvSpanEnd   = "span_end"
	// EvIteration is one pass of the relaxation loop: which node was
	// selected and why (pick_reason), its cost/size, and pool state.
	EvIteration = "iteration"
	// EvCandidates is the ranked transformation list for the selected
	// node, with per-candidate penalty components (dt, ds, penalty) and
	// skyline survivors vs pruned.
	EvCandidates = "candidates"
	// EvApply records the transformation(s) chosen this iteration.
	EvApply = "apply"
	// EvEval is one configuration evaluation: estimated-bound ΔT vs the
	// realized ΔT (bound tightness), cost, size, fits, and the lineage
	// links (parent_fp -> fp via chosen transformation IDs) a replay
	// needs.
	EvEval = "eval"
	// EvSkip is an iteration that produced no new configuration, with a
	// reason: "duplicate" (fingerprint already seen), "shortcut"
	// (§3.5 pruning), or "exhausted" (node had no useful candidate).
	EvSkip = "skip"
	// EvCache is one per-statement fragment-cache lookup (hit bool).
	EvCache = "cache"
	// EvFragment is one statement's §2 optimal fragment: the structures
	// the instrumented optimization demanded for it.
	EvFragment = "fragment"
)

// Event is one trace record. Payload is the event-specific body as
// emitted, and Fields its field map once rendered (Render) or decoded
// from a trace line; Phase is the innermost open span at emission time;
// Session is the tuning session the tracer was labeled with
// (Tracer.SetSession) — the key that joins an event to /sessions/{id}.
type Event struct {
	Seq     int64     `json:"seq"`
	Time    time.Time `json:"time"`
	Session string    `json:"session,omitempty"`
	Type    string    `json:"type"`
	Phase   string    `json:"phase,omitempty"`
	Fields  F         `json:"fields,omitempty"`
	Payload Payload   `json:"-"`
}

// Render sets Fields from Payload and drops Payload, so the event no
// longer references the emitter's buffers. A sink that keeps or writes
// events renders each one in Emit. Rendering twice is a no-op.
func (e *Event) Render() {
	if e.Payload != nil {
		e.Fields, e.Payload = e.Payload.Fields(), nil
	}
}

// Tracer stamps events with a sequence number and the current phase and
// forwards them to its sink. A nil Tracer is a valid no-op. Tracer is
// safe for concurrent use, though the relaxation search itself is
// serialized by the session mutex.
type Tracer struct {
	mu      sync.Mutex
	sink    Sink
	seq     int64
	session string
	phases  []string
	// now is swappable for tests.
	now func() time.Time
}

// NewTracer returns a tracer writing to sink (nil sink = no-op tracer).
func NewTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink, now: time.Now}
}

// Enabled reports whether emitted events go anywhere. Hot paths use it
// to skip field-map construction entirely.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// SetSession stamps subsequent events with the given session ID and
// drops any span still open: a session that ended in a panic never
// closed its spans, and the next one must not inherit their phases.
// Safe on a nil tracer.
func (t *Tracer) SetSession(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.session = id
	t.phases = t.phases[:0]
	t.mu.Unlock()
}

// Emit sends one event to the sink. Safe on a nil tracer.
func (t *Tracer) Emit(typ string, p Payload) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.seq++
	e := Event{Seq: t.seq, Time: t.now(), Session: t.session, Type: typ, Payload: p}
	if n := len(t.phases); n > 0 {
		e.Phase = t.phases[n-1]
	}
	sink := t.sink
	t.mu.Unlock()
	sink.Emit(e)
}

// Span opens a named phase and returns the closure that closes it. The
// span-end event merges extra into the timing fields. Safe on a nil
// tracer (returns a no-op closure).
func (t *Tracer) Span(phase string, fields F) func(extra F) {
	if !t.Enabled() {
		return func(F) {}
	}
	t.mu.Lock()
	t.phases = append(t.phases, phase)
	t.mu.Unlock()
	start := time.Now()
	t.Emit(EvSpanStart, fields)
	return func(extra F) {
		f := make(F, len(extra)+1)
		f["elapsed_ms"] = float64(time.Since(start).Microseconds()) / 1e3
		for k, v := range extra {
			f[k] = v
		}
		t.Emit(EvSpanEnd, f)
		t.mu.Lock()
		if n := len(t.phases); n > 0 && t.phases[n-1] == phase {
			t.phases = t.phases[:n-1]
		}
		t.mu.Unlock()
	}
}

// Close flushes and closes the underlying sink. Safe on a nil tracer.
func (t *Tracer) Close() error {
	if !t.Enabled() {
		return nil
	}
	return t.sink.Close()
}
