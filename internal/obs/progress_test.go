package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// stepEvent is the trace event one evaluated relaxation step ends in,
// as far as the progress fold reads it.
func stepEvent(step int) Event {
	return Event{Type: EvEval, Phase: "search", Fields: F{"step": step}}
}

func TestProgressNilIsNoOp(t *testing.T) {
	var p *Progress
	// Every subscriber-side method must be callable on nil.
	if p.Dropped() != 0 || p.Subscribers() != 0 {
		t.Fatal("nil Progress has state")
	}
	sub := p.Subscribe(8)
	if _, ok := <-sub.C; ok {
		t.Fatal("nil-reporter subscription delivered an event")
	}
	sub.Close() // idempotent no-op
}

// TestProgressStampsAndDelivers: events carry their own sequence
// numbers plus the timestamp and session the tracer stamped on the
// trace event they were folded from.
func TestProgressStampsAndDelivers(t *testing.T) {
	p := NewProgress()
	tr := NewTracer(p)
	sub := p.Subscribe(4)
	defer sub.Close()

	tr.SetSession("s-000042")
	tr.Span("evaluate-initial", nil)(F{"cost": 9.0, "size": int64(100)})
	tr.SetSession("s-000043")
	tr.Emit(EvEval, F{"step": 1})

	ev1 := <-sub.C
	if ev1.Seq != 1 || ev1.Session != "s-000042" || ev1.Time.IsZero() || ev1.Phase != "initial" {
		t.Fatalf("first event not stamped: %+v", ev1)
	}
	ev2 := <-sub.C
	if ev2.Seq != 2 || ev2.Session != "s-000043" || ev2.Iteration != 1 {
		t.Fatalf("second event not stamped: %+v", ev2)
	}
	// A late subscriber starts from the last event published.
	late := p.Subscribe(1)
	defer late.Close()
	if last := <-late.C; last.Seq != 2 {
		t.Fatalf("late subscriber starts at %+v, want seq 2", last)
	}
}

// TestProgressFoldsSessionEvents drives the fold through every kind of
// trace event a session emits — the warm-start, exhausted, shortcut and
// no-search paths the TPC-H golden in internal/core does not reach —
// and checks exactly which publish, and as what.
func TestProgressFoldsSessionEvents(t *testing.T) {
	p := NewProgress()
	sub := p.Subscribe(64)
	t0 := time.Unix(1000, 0)
	emit := func(ms int, typ, phase string, f F) {
		p.Emit(Event{Time: t0.Add(time.Duration(ms) * time.Millisecond), Session: "s-1", Type: typ, Phase: phase, Fields: f})
	}
	emit(0, EvSpanStart, "tune", F{"budget": int64(500)})
	emit(1, EvSpanEnd, "evaluate-initial", F{"cost": 90.0, "size": int64(100), "optimizer_calls": int64(3)})
	emit(2, EvSpanEnd, "optimal-config", F{"indexes": 7, "views": 0})
	emit(3, EvSpanEnd, "evaluate-optimal", F{"cost": 10.0, "size": int64(900), "fp": "x"})
	emit(4, EvSpanEnd, "warm-start", F{"cost": 20.0, "size": int64(400), "adopted": true, "pool": 2, "best_cost": 20.0})
	emit(5, EvSpanStart, "search", nil)
	emit(6, EvIteration, "search", F{"iter": 0, "pool": 2})
	emit(7, EvCandidates, "search", F{"iter": 0, "survivors": 0, "skyline_pruned": 3})
	emit(8, EvSkip, "search", F{"reason": "exhausted", "iter": 0, "step": 0, "size": int64(900), "cost": 10.0, "pool": 2, "skyline_pruned": 3, "best_cost": 20.0})
	emit(9, EvApply, "search", F{"iter": 1, "trans": []string{"a", "b"}, "penalty": 0.5})
	emit(10, EvSkip, "search", F{"reason": "shortcut", "iter": 1, "step": 1, "fp": "y", "cutoff": 20.0,
		"size": int64(900), "cost": 10.0, "pool": 2, "skyline_pruned": 0, "chosen": []string{"a", "b"}, "penalty": 0.5, "best_cost": 20.0})
	emit(11, EvSkip, "search", F{"reason": "time-budget", "iter": 2})
	emit(12, EvSpanEnd, "search", F{"iterations": 1, "pool": 2})
	emit(13, EvSpanEnd, "tune", F{"best_cost": 20.0, "best_size": int64(400), "iterations": 1})
	// A second session: no budget, answered by the optimal configuration
	// without a search, then one that fails.
	emit(20, EvSpanStart, "tune", F{"budget": int64(0)})
	emit(21, EvSpanEnd, "tune", F{"best_cost": 10.0, "best_size": int64(900), "iterations": 0})
	emit(30, EvSpanStart, "tune", F{"budget": int64(0)})
	emit(31, EvSpanEnd, "evaluate-initial", F{"error": "boom"})
	emit(32, EvSpanEnd, "tune", F{"error": "boom"})
	sub.Close()

	var got []ProgressEvent
	for ev := range sub.C {
		ev.Time = time.Time{}
		got = append(got, ev)
	}
	want := []ProgressEvent{
		{Seq: 1, Phase: "initial", SizeBytes: 100, Cost: 90, BudgetBytes: 500, BudgetGapBytes: -400, Fits: true, ElapsedMillis: 1},
		{Seq: 2, Phase: "optimal", SizeBytes: 900, Cost: 10, BudgetBytes: 500, BudgetGapBytes: 400, ElapsedMillis: 3},
		{Seq: 3, Phase: "warm-start", SizeBytes: 400, Cost: 20, BestCost: 20, BudgetBytes: 500, BudgetGapBytes: -100, Fits: true, PoolSize: 2, ElapsedMillis: 4},
		{Seq: 4, Phase: "search", Outcome: "exhausted", SizeBytes: 900, Cost: 10, BestCost: 20, BudgetBytes: 500, BudgetGapBytes: 400,
			CandidatesPruned: 3, PoolSize: 2, ElapsedMillis: 8},
		{Seq: 5, Phase: "search", Iteration: 1, Outcome: "shortcut", SizeBytes: 900, Cost: 10, BestCost: 20, BudgetBytes: 500, BudgetGapBytes: 400,
			Transformation: "a + b", Penalty: 0.5, PoolSize: 2, ElapsedMillis: 10},
		{Seq: 6, Phase: "done", Iteration: 1, SizeBytes: 400, Cost: 20, BestCost: 20, BudgetBytes: 500, BudgetGapBytes: -100, Fits: true, Done: true, ElapsedMillis: 13},
		{Seq: 7, Phase: "done", Outcome: "evaluated", SizeBytes: 900, Cost: 10, BestCost: 10, Fits: true, Done: true, ElapsedMillis: 1},
	}
	for i := range want {
		want[i].Session = "s-1"
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestProgressLateSubscriberSeesLast checks a late joiner is seeded with
// the current state instead of waiting for the next event.
func TestProgressLateSubscriberSeesLast(t *testing.T) {
	p := NewProgress()
	p.Emit(stepEvent(7))
	sub := p.Subscribe(1)
	defer sub.Close()
	ev := <-sub.C
	if ev.Iteration != 7 {
		t.Fatalf("late subscriber got %+v, want the last event", ev)
	}
}

// TestProgressDropOldest checks the non-blocking contract: a full
// subscriber buffer drops its oldest event, never stalls the publisher,
// and the newest state survives.
func TestProgressDropOldest(t *testing.T) {
	p := NewProgress()
	sub := p.Subscribe(2)
	defer sub.Close()

	for i := 1; i <= 10; i++ {
		p.Emit(stepEvent(i))
	}
	if p.Dropped() == 0 {
		t.Fatal("no events dropped despite a full buffer")
	}
	// The buffer holds the newest two events.
	ev1, ev2 := <-sub.C, <-sub.C
	if ev1.Iteration != 9 || ev2.Iteration != 10 {
		t.Fatalf("buffer kept %d,%d; want the newest 9,10", ev1.Iteration, ev2.Iteration)
	}
}

// TestProgressConcurrentPublishSubscribe hammers publish, subscribe,
// drain, and close from many goroutines; run under -race this pins the
// locking discipline (notably: close-after-map-removal cannot race a
// publisher's send).
func TestProgressConcurrentPublishSubscribe(t *testing.T) {
	p := NewProgress()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			p.Emit(stepEvent(i))
		}
		close(stop)
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sub := p.Subscribe(4)
				for n := 0; n < 3; n++ {
					select {
					case <-sub.C:
					case <-stop:
						sub.Close()
						return
					}
				}
				sub.Close()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if p.Subscribers() != 0 {
		t.Fatalf("%d subscribers leaked", p.Subscribers())
	}
}

func TestProgressSubscriptionCloseIdempotent(t *testing.T) {
	p := NewProgress()
	sub := p.Subscribe(1)
	sub.Close()
	sub.Close() // second close must not panic
	if p.Subscribers() != 0 {
		t.Fatalf("subscriber not removed")
	}
	// Publishing after close must not panic either.
	p.Emit(stepEvent(1))
}
