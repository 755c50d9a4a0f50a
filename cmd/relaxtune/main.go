// Command relaxtune tunes the physical design of one of the built-in
// databases for a workload, using the relaxation-based algorithm (and
// optionally the bottom-up baseline for comparison).
//
// Usage:
//
//	relaxtune -db tpch -workload tpch22 -budget 64 -views=false
//	relaxtune -db ds1 -workload /path/to/workload.sql -budget 128
//	relaxtune -db bench -gen 12 -updates 0.3 -budget 32 -baseline
//	relaxtune -db tpch -budget 8 -progress -frontier frontier.csv
//	relaxtune -db tpch -workload tpch22 -budget 16 -workload-report
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/tuner"
)

func main() {
	var (
		dbName   = flag.String("db", "tpch", "database: tpch, ds1, or bench")
		sf       = flag.Float64("sf", 0.001, "database scale factor")
		workload = flag.String("workload", "tpch22", "workload: 'tpch22', a .sql file path, or '' with -gen")
		gen      = flag.Int("gen", 0, "generate a random workload with this many statements")
		updates  = flag.Float64("updates", 0, "fraction of generated statements that modify data")
		seed     = flag.Int64("seed", 42, "workload generation seed")
		budgetMB = flag.Int64("budget", 0, "storage budget in MB (0 = unconstrained)")
		views    = flag.Bool("views", true, "consider materialized views")
		iters    = flag.Int("iters", 120, "maximum relaxation iterations")
		timeout  = flag.Duration("time", 0, "tuning time budget (0 = unbounded)")
		baseline = flag.Bool("baseline", false, "also run the bottom-up baseline advisor")
		frontier = flag.String("frontier", "", "write the space/cost frontier trajectory as CSV to this path ('-' = stdout)")
		progress = flag.Bool("progress", false, "render a live progress line (iteration, space, cost, budget gap) to stderr while tuning")
		jsonOut  = flag.String("json", "", "write a JSON tuning report to this path")
		whatIf   = flag.String("whatif", "", "skip tuning; evaluate the CREATE INDEX/VIEW script at this path")
		explain  = flag.Bool("explain", false, "print the per-structure decision log (why each index/view was kept, merged, or dropped)")
		plans    = flag.Bool("plans", false, "print each query's plan under the recommended configuration")
		traceOut = flag.String("trace", "", "write search trace events (JSONL) to this path")
		profile  = flag.Bool("profile", false, "print the per-phase performance profile (p50/p95/p99 wall time, allocations) after tuning")
		parallel = flag.Int("parallel", 0, "evaluation-engine workers (0 = all cores, 1 = exact serial algorithm)")
		replay   = flag.Bool("replay", false, "after tuning, materialize the database at -sf, execute the workload under baseline and recommended configurations, and score the cost model against measured reality")
		workRep  = flag.Bool("workload-report", false, "print the workload grouped by statement signature: weight/cost shares and the structures each signature demanded")
	)
	flag.Parse()

	db, err := datagen.ByName(*dbName, *sf)
	if err != nil {
		fatal(err)
	}
	w, err := loadWorkload(db, *workload, *gen, *updates, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("database: %s\nworkload: %s\n\n", db.Summary(), w)

	opts := tuner.Options{
		SpaceBudget:   *budgetMB << 20,
		NoViews:       !*views,
		MaxIterations: *iters,
		TimeBudget:    *timeout,
		Parallelism:   *parallel,
	}

	// One event stream out of the search: the trace file and the live
	// progress line are both sinks of it (no sinks = disabled tracer).
	var sinks []tuner.TraceSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		sinks = append(sinks, tuner.NewJSONLTraceSink(f))
	}
	var progressDone chan struct{}
	if *progress {
		prog := tuner.NewProgress()
		sinks = append(sinks, prog)
		progressDone = renderProgress(prog)
	}
	trace := tuner.NewTracer(tuner.MultiTraceSink(sinks...))
	opts.Trace = trace

	var prof *tuner.Profiler
	if *profile {
		prof = tuner.NewProfiler()
		opts.Profile = prof
	}

	if *whatIf != "" {
		runWhatIf(db, w, opts, *whatIf)
		closeTrace(trace, *traceOut)
		return
	}

	session, err := tuner.NewSession(db, w, opts)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := session.Tune()
	if err != nil {
		fatal(err) // the renderer goroutine dies with the process
	}
	if progressDone != nil {
		<-progressDone // let the renderer clear its line before printing
	}
	closeTrace(trace, *traceOut)
	printResult(res)
	fmt.Printf("relaxation tuning took %s (%d optimizer calls, %d workers)\n\n", time.Since(start).Round(time.Millisecond), res.OptimizerCalls, res.ParallelWorkers)

	if *frontier != "" {
		if err := writeFrontierCSV(*frontier, res.Frontier); err != nil {
			fatal(err)
		}
		if *frontier != "-" {
			fmt.Printf("wrote frontier trajectory to %s (%d points)\n\n", *frontier, len(res.Frontier))
		}
	}

	if prof != nil {
		rep := prof.Snapshot()
		rep.WallSeconds = res.Elapsed.Seconds()
		fmt.Println("phase profile:")
		rep.WriteText(os.Stdout)
		if cal := res.Explain.Calibration; cal != nil {
			fmt.Println("\ncost-model calibration (realized ΔT / estimated §3.3.2 bound):")
			cal.WriteText(os.Stdout)
		}
		fmt.Println()
	}

	if *replay {
		if err := runReplay(*dbName, *sf, w, res); err != nil {
			fatal(err)
		}
	}

	if *workRep {
		printWorkloadReport(w, res)
	}

	if *explain && res.Explain != nil {
		fmt.Println("decision log (why each structure ended up this way):")
		res.Explain.WriteText(os.Stdout)
		fmt.Println()
	}
	if *plans {
		printPlans(res)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := session.BuildReport(w.Name, res).WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonOut)
	}

	if *baseline {
		bres, err := tuner.TuneBottomUp(db, w, tuner.BaselineOptions{
			SpaceBudget: *budgetMB << 20,
			NoViews:     !*views,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("bottom-up baseline: cost %.1f -> %.1f (improvement %.1f%%), %d candidates, took %s\n",
			bres.Initial.Cost, bres.Best.Cost, bres.ImprovementPct(), bres.Candidates, bres.Elapsed.Round(time.Millisecond))
	}
}

// runReplay materializes the database with row data, executes the
// workload under the tuning result's baseline, sampled lineage, and
// recommended configurations, and prints the execution-grounded
// calibration report.
func runReplay(dbName string, sf float64, w *tuner.Workload, res *tuner.Result) error {
	rdb, store, err := datagen.DataByName(dbName, sf)
	if err != nil {
		return err
	}
	fmt.Printf("replaying workload against materialized %s ...\n", rdb.Summary())
	gt, err := tuner.Replay(rdb, store, w.Queries, res, tuner.ReplayOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d statements x %d configs x %d reps in %s (%d updates skipped)\n\n",
		gt.Statements, len(gt.Configs), gt.Repetitions,
		time.Duration(gt.DurationNanos).Round(time.Millisecond), gt.SkippedUpdates)
	fmt.Printf("%-16s %12s %14s %12s %10s\n", "config", "est cost", "measured", "rows scanned", "size MB")
	for _, c := range gt.Configs {
		fmt.Printf("%-16s %12.1f %14s %12d %10.2f\n", c.Label, c.EstCost,
			time.Duration(c.MeasuredNanos).Round(time.Microsecond), c.RowsScanned,
			float64(c.StructureBytes)/(1<<20))
	}
	fmt.Println()
	fmt.Println("cost-model calibration (execution-grounded):")
	cal := tuner.CalibrateGrounded(res.CalibSamples, res.Economy, gt)
	cal.WriteText(os.Stdout)
	fmt.Println()
	return nil
}

func loadWorkload(db *tuner.Database, spec string, gen int, updates float64, seed int64) (*tuner.Workload, error) {
	if gen > 0 {
		opts := tuner.GenOptions{
			Seed: seed, NumQueries: gen, MaxJoins: 4,
			UpdateFraction: updates, GroupByProb: 0.45, OrderByProb: 0.35,
			Name: "generated",
		}
		return tuner.GenerateWorkload(db, opts)
	}
	if spec == "tpch22" {
		if db.Name != "tpch" {
			return nil, fmt.Errorf("the tpch22 workload requires -db tpch")
		}
		return tuner.TPCH22Workload()
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return nil, fmt.Errorf("reading workload file: %w", err)
	}
	return tuner.ParseWorkload(spec, db.Name, string(data))
}

func printResult(res *tuner.Result) {
	fmt.Printf("initial configuration: cost %.1f, size %.1f MB\n",
		res.Initial.Cost, float64(res.Initial.SizeBytes)/(1<<20))
	fmt.Printf("optimal configuration: cost %.1f, size %.1f MB (unconstrained bound)\n",
		res.Optimal.Cost, float64(res.Optimal.SizeBytes)/(1<<20))
	fmt.Printf("recommendation:        cost %.1f, size %.1f MB (improvement %.1f%%)\n\n",
		res.Best.Cost, float64(res.Best.SizeBytes)/(1<<20), res.ImprovementPct())

	fmt.Println("recommended structures:")
	for _, v := range res.Best.Config.Views() {
		fmt.Printf("  VIEW  %s := %s\n", v.Name, v.SQL())
	}
	for _, ix := range res.Best.Config.Indexes() {
		req := ""
		if ix.Required {
			req = "  (required)"
		}
		fmt.Printf("  INDEX %s%s\n", ix.ID(), req)
	}
	fmt.Println()
	if migration := tuner.MigrationDDL(res.Initial.Config, res.Best.Config); migration != "" {
		fmt.Println("migration script (current design -> recommendation):")
		for _, line := range strings.Split(strings.TrimSpace(migration), "\n") {
			fmt.Println("  " + line)
		}
		fmt.Println()
	}
}

// writeFrontierCSV dumps the search trajectory — the paper's
// cost-vs-storage curve — as CSV, ready for plotting ("-" = stdout).
func writeFrontierCSV(path string, frontier []tuner.FrontierPoint) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := csv.NewWriter(out)
	if err := w.Write([]string{"iteration", "size_bytes", "cost", "fits", "transformation", "penalty"}); err != nil {
		return err
	}
	for _, p := range frontier {
		rec := []string{
			strconv.Itoa(p.Iteration),
			strconv.FormatInt(p.SizeBytes, 10),
			strconv.FormatFloat(p.Cost, 'g', -1, 64),
			strconv.FormatBool(p.Fits),
			p.Transformation,
			strconv.FormatFloat(p.Penalty, 'g', -1, 64),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// renderProgress consumes a live progress stream and keeps one status
// line current on stderr. The returned channel closes once the stream
// ends (the session is done), after clearing the line.
func renderProgress(prog *tuner.Progress) chan struct{} {
	sub := prog.Subscribe(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		wrote := false
		for ev := range sub.C {
			line := fmt.Sprintf("\r[%s] iter %3d  space %8.2f MB  cost %10.1f",
				ev.Phase, ev.Iteration, float64(ev.SizeBytes)/(1<<20), ev.Cost)
			if ev.BudgetBytes > 0 {
				line += fmt.Sprintf("  gap %+7.2f MB", float64(ev.BudgetGapBytes)/(1<<20))
			}
			if ev.Transformation != "" {
				line += "  " + ev.Transformation
			}
			if len(line) < 100 {
				line += strings.Repeat(" ", 100-len(line)) // clear leftovers
			}
			fmt.Fprint(os.Stderr, line)
			wrote = true
			if ev.Done {
				break
			}
		}
		if wrote {
			fmt.Fprint(os.Stderr, "\r"+strings.Repeat(" ", 100)+"\r")
		}
		sub.Close()
	}()
	return done
}

// runWhatIf evaluates a user-supplied configuration script instead of
// tuning.
func runWhatIf(db *tuner.Database, w *tuner.Workload, opts tuner.Options, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	session, err := tuner.NewSession(db, w, opts)
	if err != nil {
		fatal(err)
	}
	cfg, err := session.ParseConfigurationScript(string(data))
	if err != nil {
		fatal(err)
	}
	res, err := session.WhatIf(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("what-if configuration: %d indexes, %d views, %.1f MB\n",
		cfg.NumIndexes(), cfg.NumViews(), float64(res.Target.SizeBytes)/(1<<20))
	fmt.Printf("workload cost: %.1f -> %.1f (improvement %.1f%%)\n\n",
		res.Base.Cost, res.Target.Cost, res.ImprovementPct)
	fmt.Printf("%-14s %12s %12s %9s\n", "query", "base", "what-if", "impr")
	for _, d := range res.PerQuery {
		fmt.Printf("%-14s %12.1f %12.1f %8.1f%%\n", d.ID, d.BaseCost, d.TargetCost, d.ImprovementPct())
	}
}

// printWorkloadReport renders the workload grouped by canonical
// (S,N,O,A) statement signature: each group's weight share, the share of
// the recommended configuration's cost it carries, and the structures
// its plans demanded in the winning configuration.
func printWorkloadReport(w *tuner.Workload, res *tuner.Result) {
	costs := make([]float64, len(w.Queries))
	for i := range w.Queries {
		if i < len(res.Best.Results) {
			costs[i] = res.Best.Results[i].TotalCost()
		}
	}
	demanded := map[string][]string{}
	if res.Explain != nil {
		final := map[string]bool{}
		for _, ix := range res.Best.Config.Indexes() {
			final[ix.ID()] = true
		}
		for _, v := range res.Best.Config.Views() {
			final[v.Name] = true
		}
		for _, sd := range res.Explain.Structures {
			if !final[sd.ID] {
				continue
			}
			for _, qid := range sd.DemandedBy {
				demanded[qid] = append(demanded[qid], sd.ID)
			}
		}
	}
	groups := tuner.AttributeSignatures(w, costs, demanded)
	fmt.Printf("workload by signature (%d groups over %d statements):\n", len(groups), len(w.Queries))
	fmt.Printf("%-7s %-7s %-7s %-5s %s\n", "weight%", "cost%", "stmts", "upd", "signature")
	for _, g := range groups {
		fmt.Printf("%6.1f%% %6.1f%% %-7d %-5d %s\n",
			100*g.WeightShare, 100*g.CostShare, g.Statements, g.Updates, g.Signature)
		if len(g.Structures) > 0 {
			fmt.Printf("        demands %s\n", strings.Join(g.Structures, ", "))
		}
	}
	fmt.Println()
}

// printPlans renders each query's plan under the best configuration.
func printPlans(res *tuner.Result) {
	fmt.Println("plans under the recommended configuration:")
	for i, r := range res.Best.Results {
		if r.Plan == nil {
			continue
		}
		fmt.Printf("-- query %d (cost %.2f):\n%s\n", i+1, r.TotalCost(), plan.Format(r.Plan.Root))
	}
}

// closeTrace flushes the JSONL trace file, if tracing was requested.
func closeTrace(trace *tuner.Tracer, path string) {
	if path == "" {
		return
	}
	if err := trace.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote search trace to %s\n\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "relaxtune:", err)
	os.Exit(1)
}
