package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/service"
	"repro/internal/workloads"
)

// sameRecommendation compares what two retunes of one window recommended.
func sameRecommendation(a, b *service.Recommendation) bool {
	return a != nil && b != nil && a.Cost == b.Cost && a.InitialCost == b.InitialCost && a.SizeBytes == b.SizeBytes &&
		reflect.DeepEqual(a.Indexes, b.Indexes) && reflect.DeepEqual(a.Views, b.Views)
}

// roundSpans are the root spans of one replayed round, the parents of
// everything measured below them.
type roundSpans struct {
	retune int
	slots  [roundSlots]int
}

// roundRoots gives the service one round: the retune and then the fifteen
// open-loop requests, in schedule order. Even rounds retune through the
// handler and odd ones through Service.Retune; a round's ingest batches
// alternate the same way; reads go through the handler.
func (r *replay) roundRoots(t *tracer, req int, batches [][]string, bodies [][]byte) (roundSpans, *service.Recommendation) {
	var ids roundSpans
	var rec *service.Recommendation
	alloc0 := obs.HeapAllocBytes()
	if req%2 == 0 {
		var resp *httptest.ResponseRecorder
		ids.retune = t.time("http.retune", rootSpan, req, func() { resp = r.svc.serve("POST", "/retune", nil) })
		r.retuneAlloc = obs.HeapAllocBytes() - alloc0
		var rr struct {
			Recommendation *service.Recommendation `json:"recommendation"`
		}
		if json.Unmarshal(resp.Body.Bytes(), &rr) == nil {
			rec = rr.Recommendation
		}
	} else {
		ids.retune = t.time("service.retune", rootSpan, req, func() { rec, _ = r.svc.svc.Retune() })
		r.retuneAlloc = obs.HeapAllocBytes() - alloc0
	}
	batch, read := 0, 0
	for k := 0; k < roundSlots; k++ {
		if slotIsRead(k) {
			path := readPaths[readEndpoints[read]]
			ids.slots[k] = t.time("http.read."+readEndpoints[read], rootSpan, req, func() { r.svc.serve("GET", path, nil) })
			read++
			continue
		}
		ids.slots[k] = r.ingestRoot(t, req, batches[batch], bodies[batch])
		batch++
	}
	return ids, rec
}

// retuneStats accumulates what the traced retunes reported.
type retuneStats struct {
	sessions             int
	iterations, optCalls int64
	reused, reoptimized  int64
	statements           int64
	allocBytes           uint64
	optimizeCalls        int
	optimizeAlloc        uint64
	prevProfile          *obs.ProfileReport
	harnessRecorder      *obs.Recorder
	phaseSeconds         map[string]float64
	bindStmts            int
}

// readBelow times, as a child of a read's handler span, the service call
// the endpoint makes. A read changes nothing, so the same copy serves.
func (r *replay) readBelow(t *tracer, parent, req int, name string) {
	svc := r.svc.svc
	switch name {
	case "recommendation":
		t.time("service.recommendation", parent, req, func() { _ = svc.Recommendation() })
	case "workload":
		t.time("service.workload_report", parent, req, func() { _ = svc.WorkloadReport() })
	case "metrics":
		t.time("service.metrics_snapshot", parent, req, func() { _ = svc.MetricsSnapshot() })
		t.time("obs.prom_render", parent, req, func() {
			svc.RefreshPromGauges()
			rec := httptest.NewRecorder()
			svc.PromRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			r.promBytes = rec.Body.Len()
		})
	case "sessions":
		t.time("service.sessions", parent, req, func() { _ = svc.Sessions() })
	case "drift":
		t.time("service.drift_check", parent, req, func() { _ = svc.CheckDrift() })
	}
}

// roundBelow times the layers under one round's root spans: what the
// retune did inside core (as the service's profiler reports it), the pieces
// of Retune around core, and the layers under every ingest and read.
// Untraced, it only keeps the window and the profile baseline in step.
func (r *replay) roundBelow(t *tracer, req int, batches [][]string, ids roundSpans, rec *service.Recommendation, rs *retuneStats) error {
	profile := r.svc.svc.Profile()
	defer func() { rs.prevProfile = profile }()
	if t == nil {
		for _, b := range batches {
			observeAll(r.win, b)
		}
		return nil
	}
	rs.sessions++
	rs.iterations += int64(rec.Iterations)
	rs.optCalls += rec.OptimizerCalls
	rs.statements += int64(rec.Statements)
	if cal, err := r.svc.svc.Calibration(false); err == nil && cal != nil {
		rs.reused += cal.Economy.PlansReused
		rs.reoptimized += cal.Economy.PlansReoptimized
	}
	reportPhases(t, ids.retune, req, rs.prevProfile, profile, rs.phaseSeconds)

	// The rest of Retune, each piece on its own: the snapshot (the bare
	// window is still where the service's was when it retuned), binding
	// the session, recording it.
	var snap *workloads.Workload
	t.time("workloads.snapshot", ids.retune, req, func() { snap = r.win.Snapshot() })
	var tn *core.Tuner
	var err error
	newTuner := t.time("core.newtuner", ids.retune, req, func() { tn, err = core.NewTuner(r.db, snap, core.Options{}) })
	if err != nil {
		return err
	}
	t.time("optimizer.bind", newTuner, req, func() {
		for _, q := range snap.Queries {
			_, _ = optimizer.Bind(r.db, q.Stmt) // NewTuner just bound the same statements
		}
	})
	rs.bindStmts += len(snap.Queries)
	if sums := r.svc.svc.Sessions(); len(sums) > 0 {
		if session := r.svc.svc.Session(sums[len(sums)-1].ID); session != nil {
			t.time("obs.recorder_record", ids.retune, req, func() { _ = rs.harnessRecorder.Record(session) })
		}
	}
	// One what-if call per statement under the base configuration, to
	// price a single optimizer call.
	alloc0 := obs.HeapAllocBytes()
	t.time("optimizer.optimize", detachedSpan, req, func() {
		for _, tq := range tn.Queries {
			_, _ = tn.Opt.Optimize(tq.Bound, tn.Base)
		}
	})
	rs.optimizeAlloc += obs.HeapAllocBytes() - alloc0
	rs.optimizeCalls += len(tn.Queries)

	// The window's share of every batch, then the statements', then the
	// reads: each loop runs as hot as the one it is compared to.
	var observes, inserts [roundBatches]int
	batch, read := 0, 0
	for k := 0; k < roundSlots; k++ {
		if !slotIsRead(k) {
			observes[batch], inserts[batch] = r.observeBelow(t, ids.slots[k], req, batches[batch])
			batch++
		}
	}
	for b, stmts := range batches {
		r.statementsBelow(t, observes[b], req, stmts, inserts[b])
	}
	for k := 0; k < roundSlots; k++ {
		if slotIsRead(k) {
			r.readBelow(t, ids.slots[k], req, readEndpoints[read])
			read++
		}
	}
	r.probeWindow(t, req)
	return nil
}

// replayServe replays the seeded rounds in-process for length, and at least
// those the daemon phase ran, in alternating pairs of traced and untraced
// rounds. For every round the daemon ran it checks that the retune
// recommends what the daemon recommended.
func replayServe(e *serveEnv, sc *serveClient, opts service.Options, length time.Duration, out *outcome) error {
	tr := newTracer()
	r, err := newReplay(e.db, opts)
	if err != nil {
		return err
	}
	defer r.close()
	r.svc.svc.Ingest(e.plan.preload)
	if _, err := r.svc.svc.Retune(); err != nil {
		return err
	}
	observeAll(r.win, e.plan.preload)
	recorder, _ := obs.NewRecorder("", 0) // memory-only never fails
	rs := &retuneStats{prevProfile: r.svc.svc.Profile(), harnessRecorder: recorder, phaseSeconds: map[string]float64{}}
	before := r.svc.svc.MetricsSnapshot()

	var passes tracePasses
	tuned := 0
	deadline := time.Now().Add(length)
	for round := 0; round < len(sc.recs) || time.Now().Before(deadline); round++ {
		t := tr
		if round%4 >= 2 { // a pair holds one retune through the handler and one direct
			t = nil
		}
		batches := e.plan.round(round)
		bodies := make([][]byte, len(batches))
		for i := range batches {
			if i%2 == 0 {
				bodies[i] = ingestBody(batches[i])
			}
		}
		t0 := time.Now()
		ids, rec := r.roundRoots(t, round, batches, bodies)
		passes.add(t != nil, time.Since(t0))
		if round < len(sc.recs) && !out.check(sameRecommendation(sc.recs[round], rec),
			"round %d: the in-process replay does not reproduce the daemon's recommendation", round) {
			return nil // the copies have parted; nothing below would describe the daemon
		}
		if rec == nil {
			return fmt.Errorf("bench: replayed round %d did not retune", round)
		}
		if t != nil {
			rs.allocBytes += r.retuneAlloc
		}
		tuned += rec.Statements
		if err := r.roundBelow(t, round, batches, ids, rec, rs); err != nil {
			return err
		}
	}

	r.ingestLayerMetrics(out, tr.spans, sc.ingest.median())
	r.serveLayerMetrics(out, tr.spans, rs)
	if tuned > 0 {
		hits := r.svc.svc.MetricsSnapshot().CacheHits - before.CacheHits
		out.set("core.cache_hit_pct", 100*float64(hits)/float64(tuned), tuned)
	}
	out.set("bench.trace_overhead_pct", passes.overheadPct(), passes.n[0]+passes.n[1])
	out.set("bench.self_time_coverage_pct", coveragePct(tr.spans), len(tr.spans))
	out.spans = tr.spans
	return nil
}

// serveLayerMetrics fills in the optimizer, core, service and obs metrics
// of a replay that ran retunes and reads.
func (r *replay) serveLayerMetrics(out *outcome, spans []span, rs *retuneStats) {
	tot, cnt := totals(spans), counts(spans)
	n := rs.sessions
	out.set("optimizer.bind_us_per_stmt", perCall(tot["optimizer.bind"], rs.bindStmts, time.Microsecond), rs.bindStmts)
	out.set("optimizer.optimize_us_per_call", perCall(tot["optimizer.optimize"], rs.optimizeCalls, time.Microsecond), rs.optimizeCalls)
	if rs.optimizeCalls > 0 {
		out.set("optimizer.alloc_b_per_call", float64(rs.optimizeAlloc)/float64(rs.optimizeCalls), rs.optimizeCalls)
	}
	setCoreMetrics(out, rs.phaseSeconds, n)
	out.set("core.newtuner_ms", perCall(tot["core.newtuner"], n, time.Millisecond), n)
	if n > 0 {
		out.set("optimizer.calls", float64(rs.optCalls)/float64(n), n)
		out.set("core.iterations", float64(rs.iterations)/float64(n), n)
		out.set("core.tune_alloc_mb", float64(rs.allocBytes)/float64(n)/(1<<20), n)
	}
	if evals := rs.reused + rs.reoptimized; evals > 0 {
		out.set("core.plans_reused_pct", 100*float64(rs.reused)/float64(evals), int(evals))
	}
	// Retune straight into the service, minus core, snapshot, binding
	// and recording timed on their own.
	retuneSelf, nDirect := selfMedian(spans, "service.retune", time.Millisecond)
	out.set("service.retune_self_ms", retuneSelf, nDirect)
	r.readLayerMetrics(out, spans)
	out.set("obs.recorder_record_us", perCall(tot["obs.recorder_record"], cnt["obs.recorder_record"], time.Microsecond), cnt["obs.recorder_record"])
}

// readLayerMetrics reports the service and obs calls under the reads.
func (r *replay) readLayerMetrics(out *outcome, spans []span) {
	tot, cnt := totals(spans), counts(spans)
	out.set("service.workload_report_ms", perCall(tot["service.workload_report"], cnt["service.workload_report"], time.Millisecond), cnt["service.workload_report"])
	out.set("service.metrics_snapshot_us", perCall(tot["service.metrics_snapshot"], cnt["service.metrics_snapshot"], time.Microsecond), cnt["service.metrics_snapshot"])
	out.set("service.drift_check_ms", perCall(tot["service.drift_check"], cnt["service.drift_check"], time.Millisecond), cnt["service.drift_check"])
	out.set("obs.prom_render_us", perCall(tot["obs.prom_render"], cnt["obs.prom_render"], time.Microsecond), cnt["obs.prom_render"])
	out.set("obs.prom_bytes", float64(r.promBytes), 0)
}

// corePhases maps each core.*_ms metric to the obs.Profiler phases it
// sums. The numbers are the program's own report of where Tune spent its
// time, not measurements made from here.
var corePhases = map[string][]string{
	"core.optimal_config_ms": {"optimal-config"},
	"core.rank_ms":           {"search/rank"},
	"core.evaluate_ms":       {"evaluate-initial", "evaluate-optimal", "search/evaluate"},
	"core.enumerate_ms":      {"enumerate-root", "search/enumerate"},
	"core.skyline_ms":        {"search/skyline"},
	"core.warm_start_ms":     {"warm-start"},
	"core.explain_ms":        {"explain"},
}

// setCoreMetrics reports mean milliseconds per session for each group.
func setCoreMetrics(out *outcome, phaseSeconds map[string]float64, sessions int) {
	if sessions == 0 {
		return
	}
	for metric, phases := range corePhases {
		total := 0.0
		for _, p := range phases {
			total += phaseSeconds[p]
		}
		out.set(metric, 1000*total/float64(sessions), sessions)
	}
}

// reportPhases records, as program-reported spans under parent, what each
// profiler phase accumulated between two snapshots, nested by the phase
// names' own "/" hierarchy, and adds the same to seconds.
func reportPhases(tr *tracer, parent, req int, prev, cur *obs.ProfileReport, seconds map[string]float64) {
	top := 0.0
	deltas := map[string]float64{}
	for _, pp := range cur.Phases {
		d := pp.TotalSeconds
		if prev != nil {
			if before := prev.Phase(pp.Phase); before != nil {
				d -= before.TotalSeconds
			}
		}
		if d <= 0 {
			continue
		}
		deltas[pp.Phase] = d
		seconds[pp.Phase] += d
		if pp.Depth() == 0 {
			top += d
		}
	}
	tune := tr.reported("core.tune", parent, req, time.Duration(top*float64(time.Second)))
	// Parents first: a phase is listed when it first ends, which for
	// "search" is after its sub-phases.
	names := make([]string, 0, len(deltas))
	for name := range deltas {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		di, dj := strings.Count(names[i], "/"), strings.Count(names[j], "/")
		return di < dj || (di == dj && names[i] < names[j])
	})
	ids := map[string]int{}
	for _, name := range names {
		under := tune
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			if id, ok := ids[name[:i]]; ok {
				under = id
			}
		}
		ids[name] = tr.reported("core."+name, under, req, time.Duration(deltas[name]*float64(time.Second)))
	}
}
