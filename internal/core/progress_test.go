package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// spineSession runs the seeded session the goldens under testdata/ were
// captured from — TPC-H 22, indexes only, budget = optimal/3, 40
// iterations — with every sink of the event stream attached.
type spineSession struct {
	res      *Result
	budget   int64
	progress []obs.ProgressEvent
	trace    []obs.Event
	metrics  *obs.Registry
}

func runSpineSession(t *testing.T, parallelism int) spineSession {
	t.Helper()
	probe := tpchTuner(t, Options{NoViews: true})
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	s := spineSession{budget: probe.Opt.Sizer().ConfigBytes(optCfg) / 3, metrics: obs.NewRegistry()}

	mem, prog := obs.NewMemorySink(), obs.NewProgress()
	sub := prog.Subscribe(4096)
	tn := tpchTuner(t, Options{
		NoViews: true, SpaceBudget: s.budget, MaxIterations: 40, Parallelism: parallelism,
		Trace: obs.NewTracer(obs.MultiSink(mem, obs.NewTunerMetrics(s.metrics).Sink(), prog)),
	})
	if s.res, err = tn.Tune(); err != nil {
		t.Fatal(err)
	}
	s.trace, s.progress = mem.Events(), drainProgress(sub)
	return s
}

// drainProgress collects every event a finished session published.
// Close() closes the channel; buffered events drain out before ok goes
// false, so this never blocks after Tune returned.
func drainProgress(sub *obs.ProgressSubscription) []obs.ProgressEvent {
	sub.Close()
	var evs []obs.ProgressEvent
	for ev := range sub.C {
		evs = append(evs, ev)
	}
	return evs
}

// TestTuneEmitsProgressPerIteration pins the progress contract: a
// budget-constrained session whose tracer has a Progress sink reports
// at least one live event per
// relaxation iteration, carrying the frontier point, the budget gap,
// and the chosen transformation; the stream ends with a Done event.
func TestTuneEmitsProgressPerIteration(t *testing.T) {
	s := runSpineSession(t, 1)
	res, evs, budget := s.res, s.progress, s.budget

	if res.Iterations == 0 {
		t.Fatal("scenario did not relax; budget no longer forces work")
	}
	var search, withTransform int
	for _, ev := range evs {
		if ev.Phase == "search" {
			search++
			if ev.Outcome == "" {
				t.Errorf("search event without outcome: %+v", ev)
			}
		}
		if ev.Transformation != "" {
			withTransform++
		}
		if ev.BudgetBytes != budget {
			t.Errorf("event budget %d, want %d", ev.BudgetBytes, budget)
		}
		if ev.BudgetGapBytes != ev.SizeBytes-budget {
			t.Errorf("budget gap %d != size %d - budget %d", ev.BudgetGapBytes, ev.SizeBytes, budget)
		}
	}
	if search < res.Iterations {
		t.Errorf("%d search events for %d iterations, want >= 1 per iteration", search, res.Iterations)
	}
	if withTransform == 0 {
		t.Error("no event carried a transformation label")
	}
	last := evs[len(evs)-1]
	if !last.Done || last.Phase != "done" {
		t.Errorf("stream does not end with a done event: %+v", last)
	}
	if last.BestCost != res.Best.Cost {
		t.Errorf("final best cost %g, want %g", last.BestCost, res.Best.Cost)
	}
	// Events are seq-ordered with no gaps (one publisher, one stream).
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	// The frontier by-product carries the same enrichment.
	if len(res.Frontier) == 0 {
		t.Fatal("Result.Frontier empty")
	}
	labeled := 0
	for _, fp := range res.Frontier {
		if fp.Transformation != "" {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("no frontier point carries its transformation")
	}
}

// normalizeProgress zeroes the wall-clock fields of a progress stream.
func normalizeProgress(evs []obs.ProgressEvent) []obs.ProgressEvent {
	out := make([]obs.ProgressEvent, len(evs))
	for i, ev := range evs {
		ev.Time, ev.ElapsedMillis = time.Time{}, 0
		out[i] = ev
	}
	return out
}

// parallelDependent is the one span-end field that differs between
// Parallelism settings. The optimizer-call and cache counters are held
// equal too: they could differ only where a §3.5 cooperative abort
// fires, and the seeded session prunes nothing (ShortcutPrunes 0).
var parallelDependent = map[string]bool{"parallel_workers": true}

// goldenFields renders an event's fields the way the trace golden
// stores them: through JSON, with elapsed_ms zeroed and long strings
// (configuration fingerprints) replaced by a short digest.
func goldenFields(t *testing.T, f obs.F) map[string]any {
	t.Helper()
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if s, ok := v.(string); ok && len(s) > 96 {
			sum := sha256.Sum256([]byte(s))
			out[k] = "sha256:" + hex.EncodeToString(sum[:8])
		}
	}
	if _, ok := out["elapsed_ms"]; ok {
		out["elapsed_ms"] = 0.0
	}
	return out
}

// TestSpineMatchesParentGoldens is the refactor's contract. The goldens
// were captured from the commit before progress became a sink of the
// tracer, when the search published ProgressEvents itself: the folded
// progress stream must reproduce that stream exactly at any
// Parallelism, every trace field that existed then must keep its value
// (new fields are allowed), and the Prometheus exposition fed from the
// stream must not move.
func TestSpineMatchesParentGoldens(t *testing.T) {
	var wantProgress []obs.ProgressEvent
	for _, line := range goldenLines(t, "spine_progress.golden.jsonl") {
		var ev obs.ProgressEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		wantProgress = append(wantProgress, ev)
	}
	wantTrace := goldenLines(t, "spine_trace.golden.jsonl")

	for _, parallelism := range []int{1, 8} {
		s := runSpineSession(t, parallelism)
		if got := normalizeProgress(s.progress); !reflect.DeepEqual(got, wantProgress) {
			for i := 0; i < len(got) && i < len(wantProgress); i++ {
				if !reflect.DeepEqual(got[i], wantProgress[i]) {
					t.Fatalf("P=%d: progress event %d diverged:\n got  %+v\n want %+v", parallelism, i, got[i], wantProgress[i])
				}
			}
			t.Fatalf("P=%d: %d progress events, golden has %d", parallelism, len(got), len(wantProgress))
		}

		if len(s.trace) != len(wantTrace) {
			t.Fatalf("P=%d: %d trace events, golden has %d", parallelism, len(s.trace), len(wantTrace))
		}
		for i, line := range wantTrace {
			var want struct {
				Type, Phase string
				Fields      map[string]any
			}
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatal(err)
			}
			got := s.trace[i]
			if got.Type != want.Type || got.Phase != want.Phase {
				t.Fatalf("P=%d: trace event %d is %s/%s, golden has %s/%s", parallelism, i, got.Type, got.Phase, want.Type, want.Phase)
			}
			gotFields := goldenFields(t, got.Fields)
			for k, v := range want.Fields {
				if parallelism > 1 && parallelDependent[k] {
					continue
				}
				if !reflect.DeepEqual(gotFields[k], v) {
					t.Errorf("P=%d: trace event %d (%s/%s) field %q = %v, golden has %v", parallelism, i, got.Type, got.Phase, k, gotFields[k], v)
				}
			}
		}

		if parallelism == 1 {
			wantMetrics, err := os.ReadFile("testdata/spine_metrics.golden.prom")
			if err != nil {
				t.Fatal(err)
			}
			var gotMetrics bytes.Buffer
			s.metrics.Render(&gotMetrics)
			if !bytes.Equal(gotMetrics.Bytes(), wantMetrics) {
				t.Errorf("Prometheus exposition diverged from the golden:\n%s", gotMetrics.String())
			}
			if probs := obs.LintExposition(strings.NewReader(gotMetrics.String())); len(probs) != 0 {
				t.Errorf("exposition not lint-clean: %v", probs)
			}
		}
	}
}

// TestTraceStreamSerialIdenticalUnderParallelism is the determinism
// acceptance criterion: a Parallelism-8 run must produce the same
// recommendation AND the same event stream (up to timestamps and the
// worker count) as the serial run — including the fields the goldens
// predate — because events are emitted only from the serial main line
// and every Parallelism makes the serial run's optimizer calls.
func TestTraceStreamSerialIdenticalUnderParallelism(t *testing.T) {
	serial, parallel := runSpineSession(t, 1), runSpineSession(t, 8)
	requireSameOutcome(t, serial.res, parallel.res)
	if len(serial.trace) != len(parallel.trace) {
		t.Fatalf("event count diverged: serial %d, parallel %d", len(serial.trace), len(parallel.trace))
	}
	for i, se := range serial.trace {
		pe := parallel.trace[i]
		if se.Type != pe.Type || se.Phase != pe.Phase || se.Seq != pe.Seq {
			t.Fatalf("event %d diverged: serial %s/%s, parallel %s/%s", i, se.Type, se.Phase, pe.Type, pe.Phase)
		}
		for k, v := range se.Fields {
			if k == "elapsed_ms" || parallelDependent[k] {
				continue
			}
			if !reflect.DeepEqual(v, pe.Fields[k]) {
				t.Errorf("event %d (%s/%s) field %q diverged: serial %v, parallel %v", i, se.Type, se.Phase, k, v, pe.Fields[k])
			}
		}
		if len(se.Fields) != len(pe.Fields) {
			t.Errorf("event %d (%s/%s) field sets diverged: serial %v, parallel %v", i, se.Type, se.Phase, se.Fields, pe.Fields)
		}
	}
}

// TestTuneNilTraceUnchanged: attaching no tracer must not change the
// search outcome relative to one with every sink attached (the event
// stream is observation, never steering).
func TestTuneNilTraceUnchanged(t *testing.T) {
	observed := runSpineSession(t, 1)
	bare, err := tpchTuner(t, Options{
		NoViews: true, SpaceBudget: observed.budget, MaxIterations: 40, Parallelism: 1,
	}).Tune()
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutcome(t, bare, observed.res)
}

// TestDisabledTracerPathAllocatesNothing pins "zero cost when off": with
// no tracer and no profiler, opening and closing a span and passing an
// emission guard — everything the search does per phase and per
// iteration on behalf of observability — allocates nothing.
func TestDisabledTracerPathAllocatesNothing(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	allocs := testing.AllocsPerRun(1000, func() {
		end := tn.span("search")
		if tr := tn.Options.Trace; tr.Enabled() {
			tr.Emit(obs.EvSkip, obs.F{"reason": "exhausted"})
		}
		end(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f per span, want 0", allocs)
	}
}
