package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/tuner"
)

// benchScale is the scale factor of batch-update's catalog.
const benchScale = 0.01

// batchIterationCap is the facade's default MaxIterations. The relaxation
// search is an anytime algorithm and always runs out its iterations; what
// a session must do well before the cap is reach the budget, or it
// reports no improvement at all.
const batchIterationCap = 200

// sessionStatements is how many of the bench templates, from the first, a
// session tunes: 7 of these 20 modify data. Serial, such a session takes a
// quarter of a second here, so a run collects about a hundred; over all 45
// templates a session takes 2.3 s and a run a dozen, too few for a median
// that repeats.
const sessionStatements = 20

// warmupStatements sizes the untimed session that is part of set-up.
const warmupStatements = 15

// batchWorkload draws session i's statements: each of the first n bench
// templates once, with its own literals.
func batchWorkload(seed int64, i, n int) []string {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(i)*104729 + 13))
	out := make([]string, n)
	var buf []byte
	for t, tpl := range benchTemplates[:n] {
		buf = tpl.render(buf[:0], rng, false, 0)
		out[t] = string(buf)
	}
	return out
}

// batchCostRatioCeiling is the quality a run over every bench template has
// to reach, as serveCostRatioCeiling is for serve-mixed. Over 68 seeds the
// ratio lay between 0.79 and 0.85.
const batchCostRatioCeiling = 0.90

const sizingRepeats = 5

// batchSession is one cold tuning session through the facade.
type batchSession struct {
	// sizing is thirdBudget — NewSession, OptimalConfiguration, two
	// Evaluates — timed sizingRepeats times over, so that all but the first
	// sample find the processor's caches as the step itself leaves them and
	// not as the previous session's search did.
	sizing        [sizingRepeats]time.Duration
	wall          time.Duration // the session itself
	cpu           float64       // seconds of this process, across the session
	result        *tuner.Result
	optimizeAlloc uint64 // heap allocated by the traced run's what-if probe
}

// tuneOnce runs session i. With a tracer it also passes an obs.Profiler
// and times the session's two public steps separately.
func tuneOnce(db *catalog.Database, seed int64, i, statements int, tr *tracer, phaseSeconds map[string]float64, out *outcome) (*batchSession, error) {
	sqls := batchWorkload(seed, i, statements)
	s := &batchSession{}
	var budget int64
	var err error
	for k := range s.sizing {
		t0 := time.Now()
		if budget, err = thirdBudget(db, "batch", sqls); err != nil {
			return nil, err
		}
		s.sizing[k] = time.Since(t0)
	}
	w, err := tuner.WorkloadFromStatements("batch", db.Name, sqls)
	if err != nil {
		return nil, err
	}
	opts := tuner.Options{SpaceBudget: budget, Parallelism: 1}
	cpu0, t0 := selfCPUSeconds(), time.Now()
	if tr == nil {
		s.result, err = tuner.Tune(db, w, opts)
	} else {
		profiler := obs.NewProfiler()
		opts.Profile = profiler
		var session *tuner.Session
		newTuner := tr.time("core.newtuner", rootSpan, i, func() { session, err = tuner.NewSession(db, w, opts) })
		if err != nil {
			return nil, err
		}
		tune := tr.time("core.session", rootSpan, i, func() { s.result, err = session.Tune() })
		if err == nil {
			reportPhases(tr, tune, i, nil, profiler.Snapshot(), phaseSeconds)
			tr.time("optimizer.bind", newTuner, i, func() {
				for _, q := range w.Queries {
					_, _ = optimizer.Bind(db, q.Stmt) // NewSession just bound the same statements
				}
			})
			alloc0 := obs.HeapAllocBytes()
			tr.time("optimizer.optimize", detachedSpan, i, func() {
				for _, tq := range session.Queries {
					_, _ = session.Opt.Optimize(tq.Bound, session.Base)
				}
			})
			s.optimizeAlloc = obs.HeapAllocBytes() - alloc0
		}
	}
	s.wall, s.cpu = time.Since(t0), selfCPUSeconds()-cpu0
	if !out.check(err == nil, "session %d: %v", i, err) {
		return nil, nil
	}
	res := s.result
	out.check(res.Best.SizeBytes <= budget, "session %d: recommendation takes %d bytes, budget %d", i, res.Best.SizeBytes, budget)
	out.check(res.Best.Cost < res.Initial.Cost, "session %d: cost %g is not below initial %g", i, res.Best.Cost, res.Initial.Cost)
	fit := -1
	for _, p := range res.Frontier {
		if p.Fits {
			fit = p.Iteration
			break
		}
	}
	out.check(fit >= 0 && fit < batchIterationCap/2,
		"session %d: first configuration within budget at iteration %d of %d", i, fit, batchIterationCap)
	if tr == nil && i >= 0 {
		out.repeatable["recommendation by session"] = append(out.repeatable["recommendation by session"],
			fmt.Sprintf("cost %g of %g, %d bytes, %d iterations, %d optimizer calls",
				res.Best.Cost, res.Initial.Cost, res.Best.SizeBytes, res.Iterations, res.OptimizerCalls))
	}
	return s, nil
}

func runBatch(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	statements := sessionStatements
	if cfg.smoke {
		statements = 12
	}
	var db *catalog.Database
	warm := newOutcome() // the warm-up session's checks are not part of the run
	setupS, _, err := setupMedian(cfg.setups, func() (func(), error) {
		db = tuner.Bench(benchScale)
		// One small session before timing: the first pays for lazy
		// initialisation that no later one does.
		_, err := tuneOnce(db, cfg.seed, -1, min(statements, warmupStatements), nil, nil, warm)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}

	tr := (*tracer)(nil)
	if cfg.trace {
		tr = newTracer()
	}
	phaseSeconds := map[string]float64{}
	var walls, sizings, tracedWalls samples
	probe := newHostProbe() // run after every session
	var cpu, cost, initial float64
	var optCalls, iterations, reused, reoptimized int64
	var allocBytes, optimizeAlloc uint64
	stmts, traced := 0, 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		s, err := tuneOnce(db, cfg.seed, i, statements, nil, nil, out)
		if err != nil {
			return nil, err
		}
		if s == nil {
			continue
		}
		probe.run()
		walls.add(s.wall)
		for _, d := range s.sizing {
			sizings.add(d)
		}
		cpu += s.cpu
		stmts += statements
		cost += s.result.Best.Cost
		initial += s.result.Initial.Cost
		if !cfg.trace {
			continue
		}
		// The same session again, traced: the pair gives the overhead.
		alloc0 := obs.HeapAllocBytes()
		ts, err := tuneOnce(db, cfg.seed, i, statements, tr, phaseSeconds, out)
		if err != nil {
			return nil, err
		}
		if ts == nil {
			continue
		}
		allocBytes += obs.HeapAllocBytes() - alloc0 - ts.optimizeAlloc
		optimizeAlloc += ts.optimizeAlloc
		traced++
		tracedWalls.add(ts.wall)
		out.check(ts.result.Best.Cost == s.result.Best.Cost && ts.result.Best.SizeBytes == s.result.Best.SizeBytes,
			"session %d: traced and untraced sessions disagree", i)
		optCalls += ts.result.OptimizerCalls
		iterations += int64(ts.result.Iterations)
		reused += ts.result.Economy.PlansReused
		reoptimized += ts.result.Economy.PlansReoptimized
	}
	costRatio := 0.0
	if initial > 0 {
		costRatio = cost / initial
	}
	ceiling := batchCostRatioCeiling
	if statements < sessionStatements {
		ceiling = 1 // the smoke test's cut-down sessions only have to improve
	}
	out.check(costRatio > 0 && costRatio <= ceiling,
		"cost ratio %g over %d sessions is not within (0, %g]", costRatio, len(walls), ceiling)
	hwm, err := pidStatusMB(0, "VmHWM")
	if err != nil {
		return nil, err
	}
	n := len(walls)

	if !cfg.trace {
		tail := tailPercentiles[batchUpdate]
		f := probe.factor()
		out.set("setup_s", setupS/f, cfg.setups)
		out.set("op_p50_ms", walls.median()/f, n)
		out.set("op_tail_ms", walls.percentile(tail.op)/f, n)
		out.set("side_p50_ms", sizings.median()/f, len(sizings))
		out.set("side_tail_ms", sizings.percentile(tail.side)/f, len(sizings))
		// Every session tunes as many statements, so the median session
		// gives the median rate.
		out.set("stmts_per_s", float64(statements)/(walls.median()/1000)*f, n)
		out.set("cpu_ms_per_kstmt", 1000*cpu/(float64(stmts)/1000)/f, n)
		out.set("peak_rss_mb", hwm, 0)
		out.extra["host_factor"] = f
		out.extra["tune_wall_s"] = walls.median() / 1000
		out.extra["tune_wall_q1_s"] = walls.percentile(25) / 1000
		out.extra["tune_wall_q3_s"] = walls.percentile(75) / 1000
		out.extra["cost_ratio"] = costRatio
		out.samples["tune_wall_s"] = n
		return out, nil
	}

	spans := tr.spans
	tot, cnt := totals(spans), counts(spans)
	bound := traced * statements
	out.set("client.tune_wall_s", walls.median()/1000, n)
	out.set("client.cost_ratio", costRatio, n)
	out.set("optimizer.bind_us_per_stmt", perCall(tot["optimizer.bind"], bound, time.Microsecond), bound)
	out.set("optimizer.optimize_us_per_call", perCall(tot["optimizer.optimize"], bound, time.Microsecond), bound)
	if bound > 0 {
		out.set("optimizer.alloc_b_per_call", float64(optimizeAlloc)/float64(bound), bound)
	}
	setCoreMetrics(out, phaseSeconds, traced)
	out.set("core.newtuner_ms", perCall(tot["core.newtuner"], cnt["core.newtuner"], time.Millisecond), cnt["core.newtuner"])
	if traced > 0 {
		out.set("optimizer.calls", float64(optCalls)/float64(traced), traced)
		out.set("core.iterations", float64(iterations)/float64(traced), traced)
		out.set("core.tune_alloc_mb", float64(allocBytes)/float64(traced)/(1<<20), traced)
		out.set("bench.trace_overhead_pct", 100*(tracedWalls.median()-walls.median())/walls.median(), traced)
	}
	if evals := reused + reoptimized; evals > 0 {
		out.set("core.plans_reused_pct", 100*float64(reused)/float64(evals), int(evals))
	}
	rss, err := pidStatusMB(0, "VmRSS")
	if err != nil {
		return nil, err
	}
	out.set("tunerd.rss_end_mb", rss, 0) // no daemon: the harness is the process that tunes
	out.set("tunerd.cpu_s", cpu, 0)
	out.set("bench.host_factor", probe.factor(), len(probe.took))
	out.set("bench.self_time_coverage_pct", coveragePct(spans), len(spans))
	out.set("client.failed_ops_pct", 100*float64(out.failed)/float64(out.attempted), out.attempted)
	out.spans = spans
	return out, nil
}
