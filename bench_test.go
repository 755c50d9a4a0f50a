// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation (one benchmark per exhibit — see DESIGN.md's
// experiment index), and adds ablation benchmarks for the design choices
// the relaxation search makes, plus micro-benchmarks of the hot paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one exhibit:
//
//	go test -bench=BenchmarkFigure8 -benchtime=1x -v
package repro

import (
	"os"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/sqlx"
	"repro/internal/workloads"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Workloads = 2
	cfg.QueriesPerWorkload = 6
	cfg.MaxIterations = 40
	cfg.PTTTimeBudget = 10 * time.Second
	return cfg
}

func verbose() bool { return testing.Verbose() }

// --- one benchmark per paper exhibit ---

func BenchmarkTable1Requests(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderTable1(os.Stdout, rows)
		}
	}
}

func BenchmarkTable2Inventory(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderTable2(os.Stdout, rows)
		}
	}
}

func BenchmarkTable3TuningTime(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderTable3(os.Stdout, rows)
		}
	}
}

func BenchmarkFigure3Convergence(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderFigure3(os.Stdout, res)
		}
	}
}

func BenchmarkFigure4Frontier(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderFigure4(os.Stdout, res)
		}
	}
}

func BenchmarkFigure6Transformations(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		census, err := experiments.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderFigure6(os.Stdout, census)
		}
	}
}

func BenchmarkFigure8NoConstraints(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderDeltaRows(os.Stdout, "Figure 8 (bench run)", rows)
		}
	}
}

func BenchmarkFigure9Updates(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderDeltaRows(os.Stdout, "Figure 9 (bench run)", rows)
		}
	}
}

func BenchmarkFigure10SpaceSweep(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.MaxIterations = 30
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderFigure10(os.Stdout, rows)
		}
	}
}

// --- ablation benchmarks: the DESIGN.md design-choice list ---

func tunedCost(b *testing.B, opts core.Options) float64 {
	db := datagen.TPCH(0.001)
	w, err := workloads.TPCH22()
	if err != nil {
		b.Fatal(err)
	}
	tn, err := core.NewTuner(db, w, opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := tn.Tune()
	if err != nil {
		b.Fatal(err)
	}
	return res.Best.Cost
}

func benchAblation(b *testing.B, opts core.Options) {
	b.ReportAllocs()
	// Derive a consistent budget once.
	db := datagen.TPCH(0.001)
	w, _ := workloads.TPCH22()
	probe, err := core.NewTuner(db, w, core.Options{NoViews: true})
	if err != nil {
		b.Fatal(err)
	}
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		b.Fatal(err)
	}
	opts.NoViews = true
	opts.MaxIterations = 40
	opts.SpaceBudget = probe.Opt.Sizer().ConfigBytes(optCfg) / 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost := tunedCost(b, opts)
		if i == 0 {
			b.ReportMetric(cost, "finalcost")
		}
	}
}

func BenchmarkAblationPaperHeuristics(b *testing.B) { benchAblation(b, core.Options{}) }
func BenchmarkAblationPlainPenalty(b *testing.B)    { benchAblation(b, core.Options{PlainPenalty: true}) }
func BenchmarkAblationNoChainCorrection(b *testing.B) {
	benchAblation(b, core.Options{DisableChainCorrection: true})
}
func BenchmarkAblationNoShortcut(b *testing.B) {
	benchAblation(b, core.Options{DisableShortcut: true})
}
func BenchmarkAblationFullReoptimize(b *testing.B) {
	benchAblation(b, core.Options{FullReoptimize: true})
}

// --- observability overhead guard ---
//
// Tracing costs one pointer check per emission site when disabled (nil
// Options.Trace). Enabled, its cost depends on the sinks: the two tunerd
// always runs (search metrics and /progress, "Daemon") read the step
// events' typed payloads and build no field map, while a memory sink
// ("On") renders every event's map. Compare:
//
//	go test -run XXX -bench 'BenchmarkTuneTracing' -benchmem -benchtime 5x
//
// Measured on a 2-core x86-64 container (-benchtime 5x, medians of 3;
// timings spread by about 10 % run to run, allocation counts by less
// than 0.01 %): Off 153 ms and 378.3k allocs/op, Daemon 163 ms and
// 378.6k, On 186 ms and 384.3k.

func benchTuneTracing(b *testing.B, sink func() obs.Sink) {
	b.ReportAllocs()
	db := datagen.TPCH(0.001)
	w, err := workloads.TPCH22()
	if err != nil {
		b.Fatal(err)
	}
	probe, err := core.NewTuner(db, w, core.Options{NoViews: true})
	if err != nil {
		b.Fatal(err)
	}
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{
		NoViews:       true,
		MaxIterations: 40,
		SpaceBudget:   probe.Opt.Sizer().ConfigBytes(optCfg) / 3,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sink != nil {
			opts.Trace = obs.NewTracer(sink())
		}
		tn, err := core.NewTuner(db, w, opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := tn.Tune()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Iterations), "iterations")
		}
	}
}

func BenchmarkTuneTracingOff(b *testing.B) { benchTuneTracing(b, nil) }
func BenchmarkTuneTracingOn(b *testing.B) {
	benchTuneTracing(b, func() obs.Sink { return obs.NewMemorySink() })
}
func BenchmarkTuneTracingDaemon(b *testing.B) {
	benchTuneTracing(b, func() obs.Sink {
		return obs.MultiSink(obs.NewTunerMetrics(obs.NewRegistry()).Sink(), obs.NewProgress())
	})
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkOptimizeSingleTable(b *testing.B) {
	b.ReportAllocs()
	db := datagen.TPCH(0.01)
	o := optimizer.New(db)
	cfg := datagen.BaseConfiguration(db)
	stmt, err := sqlx.Parse("SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate > 9131 GROUP BY l_shipmode")
	if err != nil {
		b.Fatal(err)
	}
	q, err := optimizer.Bind(db, stmt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeSixWayJoin(b *testing.B) {
	b.ReportAllocs()
	db := datagen.TPCH(0.01)
	o := optimizer.New(db)
	cfg := datagen.BaseConfiguration(db)
	src := workloads.TPCH22SQL()[4] // Q5: six tables
	stmt, err := sqlx.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	q, err := optimizer.Bind(db, stmt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerateTransformations(b *testing.B) {
	b.ReportAllocs()
	db := datagen.TPCH(0.001)
	w, _ := workloads.TPCH22()
	tn, err := core.NewTuner(db, w, core.Options{NoViews: true})
	if err != nil {
		b.Fatal(err)
	}
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		b.Fatal(err)
	}
	opts := physical.EnumerateOptions{NoViews: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trs := physical.Enumerate(optCfg, opts)
		if len(trs) == 0 {
			b.Fatal("no transformations")
		}
	}
}

func BenchmarkBoundDelta(b *testing.B) {
	b.ReportAllocs()
	db := datagen.TPCH(0.001)
	w, _ := workloads.TPCH22()
	tn, err := core.NewTuner(db, w, core.Options{NoViews: true})
	if err != nil {
		b.Fatal(err)
	}
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		b.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		b.Fatal(err)
	}
	trs := physical.Enumerate(optCfg, physical.EnumerateOptions{NoViews: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tn.BoundDelta(ec, trs[i%len(trs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseTPCHQuery(b *testing.B) {
	b.ReportAllocs()
	src := workloads.TPCH22SQL()[7]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlx.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineBottomUp(b *testing.B) {
	b.ReportAllocs()
	db := datagen.TPCH(0.001)
	w, _ := workloads.TPCH22()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn, err := core.NewTuner(db, w, core.Options{NoViews: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := baseline.Tune(tn, baseline.Options{NoViews: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidateEstimates(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Validate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && verbose() {
			experiments.RenderValidate(os.Stdout, rows)
		}
	}
}

func BenchmarkExecuteTPCHQuery(b *testing.B) {
	b.ReportAllocs()
	db, store := datagen.TPCHData(0.001)
	stmt, err := sqlx.Parse(workloads.TPCH22SQL()[2]) // Q3: 3-way join + group
	if err != nil {
		b.Fatal(err)
	}
	q, err := optimizer.Bind(db, stmt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.ExecuteQuery(store, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterializeTPCH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, store := datagen.TPCHData(0.001)
		if db == nil || store.Get("lineitem") == nil {
			b.Fatal("materialization failed")
		}
	}
}

func BenchmarkOptimalConfiguration(b *testing.B) {
	b.ReportAllocs()
	db := datagen.TPCH(0.001)
	w, _ := workloads.TPCH22()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn, err := core.NewTuner(db, w, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tn.OptimalConfiguration(); err != nil {
			b.Fatal(err)
		}
	}
}
