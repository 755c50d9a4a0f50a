package obs

import (
	"strings"
	"sync"
	"time"
)

// ProgressEvent is one live observation of the relaxation search: the
// frontier point the search just visited, the chosen transformation and
// its penalty, and the budget gap still to close. Progress publishes one
// event per relaxation step (plus phase-boundary and completion
// events), so a subscriber watching the stream sees the paper's
// cost-vs-storage trajectory unfold in real time instead of reading it
// post-hoc from Result.Frontier.
type ProgressEvent struct {
	// Seq is a monotonically increasing event number (per Progress).
	Seq int64 `json:"seq"`
	// Time is the timestamp of the trace event this one was folded from.
	Time time.Time `json:"time"`
	// Session labels the tuning session the event belongs to (the
	// flight-recorder session ID when the service drives the search).
	Session string `json:"session,omitempty"`
	// Phase is the search phase emitting the event: "initial",
	// "optimal", "warm-start", "search", or "done".
	Phase string `json:"phase"`
	// Iteration is the relaxation step count so far (Result.Iterations).
	Iteration int `json:"iteration"`
	// Outcome says what the step produced: "evaluated" (a new frontier
	// point), "duplicate", "shortcut", or "exhausted".
	Outcome string `json:"outcome,omitempty"`
	// SizeBytes and Cost describe the configuration just visited — the
	// live frontier point (Cost is the workload's estimated total
	// execution time under the configuration).
	SizeBytes int64   `json:"size_bytes"`
	Cost      float64 `json:"cost"`
	// BestCost is the incumbent recommendation's cost (0 until some
	// configuration fits the budget).
	BestCost float64 `json:"best_cost,omitempty"`
	// BudgetBytes is the session's space budget (0 = unconstrained);
	// BudgetGapBytes is SizeBytes − BudgetBytes (positive while the
	// configuration is still over budget).
	BudgetBytes    int64 `json:"budget_bytes,omitempty"`
	BudgetGapBytes int64 `json:"budget_gap_bytes,omitempty"`
	// Fits reports whether the configuration is within budget.
	Fits bool `json:"fits"`
	// Transformation names the relaxation step chosen this iteration
	// (possibly several IDs joined by " + " under multi-transform);
	// Penalty is its estimated ΔT/ΔS penalty.
	Transformation string  `json:"transformation,omitempty"`
	Penalty        float64 `json:"penalty,omitempty"`
	// CandidatesPruned is the number of candidates the §3.6 skyline
	// filter discarded at this iteration.
	CandidatesPruned int `json:"candidates_pruned,omitempty"`
	// PoolSize is the number of configurations in the search pool.
	PoolSize int `json:"pool_size,omitempty"`
	// Done marks the final event of a session.
	Done bool `json:"done,omitempty"`
	// ElapsedMillis is the session wall time at emission.
	ElapsedMillis int64 `json:"elapsed_millis,omitempty"`
}

// Progress fans live search progress out to subscribers. It is a Sink:
// installed on the session's Tracer (alone or beside the JSONL and
// Prometheus sinks) it folds the search's trace events into
// ProgressEvents, so the search itself knows nothing about progress
// reporting. The subscriber-side methods are safe on a nil *Progress.
//
// Delivery is non-blocking: each subscriber owns a bounded buffer and a
// publisher that finds it full drops the oldest buffered event, so a
// slow SSE client can never stall (or leak memory into) a tuning
// session. All methods are safe for concurrent use.
type Progress struct {
	mu      sync.Mutex
	seq     int64
	nextSub int
	subs    map[int]chan ProgressEvent
	last    ProgressEvent
	hasLast bool
	dropped int64
	// State of the session being folded, set by its "tune" span start:
	// the space budget, the start time, and whether a relaxation search
	// ran (a session the §2 optimal configuration answers runs none).
	budget   int64
	started  time.Time
	searched bool
}

// NewProgress returns an empty progress reporter.
func NewProgress() *Progress {
	return &Progress{subs: map[int]chan ProgressEvent{}}
}

// Emit folds one trace event. The stream publishes one ProgressEvent
// per session boundary — the ends of the evaluate-initial,
// evaluate-optimal, warm-start (when the warm configuration was
// evaluated) and tune spans — and one per relaxation step: the eval or
// skip event the step ended in. Everything else on the stream, and any
// span that ended in an error, publishes nothing.
func (p *Progress) Emit(e Event) {
	ev := ProgressEvent{Time: e.Time, Session: e.Session, Phase: "search"}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Type {
	case EvEval, EvSkip:
		if f, ok := e.payload().(F); ok && f["step"] == nil {
			return // not a relaxation step's end (a time-budget stop)
		}
		var x *StepEnd
		switch q := e.typed().(type) {
		case *Eval:
			x, ev.Outcome = &q.StepEnd, "evaluated"
		case *Skip:
			x, ev.Outcome = &q.StepEnd, q.Reason
		default:
			return
		}
		ev.Iteration, ev.SizeBytes, ev.Cost = x.Step, x.Size, x.Cost
		ev.BestCost, ev.PoolSize = x.BestCost, x.Pool
		ev.Penalty, ev.CandidatesPruned = x.Penalty, x.SkylinePruned
		ev.Transformation = strings.Join(x.Chosen, " + ")
	case EvSpanStart, EvSpanEnd:
		f, _ := e.payload().(F)
		size, cost, step := "size", "cost", "step"
		switch {
		case e.Type == EvSpanStart && e.Phase == "tune":
			p.budget, p.started, p.searched = int64(fieldFloat(f, "budget")), e.Time, false
			return
		case e.Type == EvSpanStart && e.Phase == "search":
			p.searched = true
			return
		case e.Type == EvSpanEnd && e.Phase == "tune" && f["best_cost"] != nil:
			ev.Phase, ev.Done = "done", true
			size, cost, step = "best_size", "best_cost", "iterations"
			if !p.searched {
				ev.Outcome = "evaluated"
			}
		case e.Type == EvSpanEnd && f["cost"] != nil &&
			(e.Phase == "evaluate-initial" || e.Phase == "evaluate-optimal" || e.Phase == "warm-start"):
			ev.Phase = strings.TrimPrefix(e.Phase, "evaluate-")
		default:
			return
		}
		ev.Iteration = int(fieldFloat(f, step))
		ev.SizeBytes, ev.Cost = int64(fieldFloat(f, size)), fieldFloat(f, cost)
		ev.BestCost, ev.PoolSize = fieldFloat(f, "best_cost"), int(fieldFloat(f, "pool"))
	default:
		return
	}
	ev.Fits = p.budget <= 0 || ev.SizeBytes <= p.budget
	if p.budget > 0 {
		ev.BudgetBytes, ev.BudgetGapBytes = p.budget, ev.SizeBytes-p.budget
	}
	ev.ElapsedMillis = e.Time.Sub(p.started).Milliseconds()
	p.publish(ev)
}

// Close is a no-op: subscribers close their own subscriptions.
func (p *Progress) Close() error { return nil }

// publish delivers one event to every subscriber, stamping it with the
// next sequence number. Never blocks: full subscriber buffers drop
// their oldest event. Callers hold p.mu.
func (p *Progress) publish(ev ProgressEvent) {
	p.seq++
	ev.Seq = p.seq
	p.last, p.hasLast = ev, true
	for _, ch := range p.subs {
		p.send(ch, ev)
	}
}

// send delivers without blocking: when the subscriber's buffer is full
// the oldest buffered event is dropped to make room (the newest state
// is always the most valuable one for a live view). Callers hold p.mu,
// so only one goroutine ever sends on or drains a subscriber channel.
func (p *Progress) send(ch chan ProgressEvent, ev ProgressEvent) {
	select {
	case ch <- ev:
		return
	default:
	}
	select {
	case <-ch:
		p.dropped++
	default:
		// The receiver drained the buffer between our two selects.
	}
	select {
	case ch <- ev:
	default:
		p.dropped++
	}
}

// Dropped is the total number of events discarded across all
// subscribers because their buffers were full.
func (p *Progress) Dropped() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Subscribers is the current subscriber count.
func (p *Progress) Subscribers() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// ProgressSubscription is one subscriber's view of the stream. Close it
// when done; the channel is closed and the subscriber removed.
type ProgressSubscription struct {
	// C delivers events in publication order. It is closed by Close.
	C <-chan ProgressEvent

	p    *Progress
	id   int
	once sync.Once
}

// closedProgressCh backs subscriptions on a nil reporter: reads complete
// immediately with ok=false, so range loops terminate.
var closedProgressCh = func() chan ProgressEvent {
	ch := make(chan ProgressEvent)
	close(ch)
	return ch
}()

// Subscribe registers a subscriber with the given buffer capacity
// (minimum 1). The most recent event, if any, is pre-seeded so a late
// joiner immediately sees the current state. Safe on a nil reporter
// (returns a subscription whose channel is already closed).
func (p *Progress) Subscribe(buf int) *ProgressSubscription {
	if p == nil {
		return &ProgressSubscription{C: closedProgressCh}
	}
	if buf < 1 {
		buf = 1
	}
	ch := make(chan ProgressEvent, buf)
	p.mu.Lock()
	id := p.nextSub
	p.nextSub++
	p.subs[id] = ch
	if p.hasLast {
		ch <- p.last // fresh buffered channel: never blocks
	}
	p.mu.Unlock()
	return &ProgressSubscription{C: ch, p: p, id: id}
}

// Close removes the subscriber and closes its channel. Idempotent.
func (s *ProgressSubscription) Close() {
	if s.p == nil {
		return
	}
	s.once.Do(func() {
		s.p.mu.Lock()
		ch := s.p.subs[s.id]
		delete(s.p.subs, s.id)
		s.p.mu.Unlock()
		// The publisher only sends while the subscriber is in the map
		// (under p.mu), so closing after removal cannot race a send.
		if ch != nil {
			close(ch)
		}
	})
}
