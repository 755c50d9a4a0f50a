package experiments

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/workloads"
)

// ---------------------------------------------------------------------
// Figure 3: best-configuration improvement over time for the bottom-up
// tool (the plateau that motivates knowing the optimal configuration).
// ---------------------------------------------------------------------

// Fig3Result is the bottom-up convergence trace plus the optimal bound
// the paper argues a DBA should be shown.
type Fig3Result struct {
	Progress    []baseline.ProgressPoint
	InitialCost float64
	OptimalCost float64
}

// Figure3 traces CTT's best configuration over a complex 30-query
// workload and reports the relaxation tuner's optimal-configuration bound
// for comparison.
func Figure3(cfg Config) (*Fig3Result, error) {
	db := datagen.TPCH(cfg.SF)
	opt := workloads.DefaultGenOptions("fig3", cfg.Seed+9, 30)
	opt.MaxJoins = 5
	w, err := workloads.Generate(db, opt)
	if err != nil {
		return nil, err
	}
	tn, err := core.NewTuner(db, w, core.Options{NoViews: true})
	if err != nil {
		return nil, err
	}
	ctt, err := baseline.Tune(tn, baseline.Options{NoViews: true})
	if err != nil {
		return nil, err
	}
	optimalCfg, err := tn.OptimalConfiguration()
	if err != nil {
		return nil, err
	}
	optimal, err := tn.Evaluate(optimalCfg)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		Progress:    ctt.Progress,
		InitialCost: ctt.Initial.Cost,
		OptimalCost: optimal.Cost,
	}, nil
}

// ---------------------------------------------------------------------
// Figure 4: the relaxation frontier (space vs. cost) for a TPC-H
// workload tuned for indexes.
// ---------------------------------------------------------------------

// Fig4Result is the space/cost frontier produced as a by-product of one
// relaxation run.
type Fig4Result struct {
	Frontier    []core.FrontierPoint
	InitialCost float64
	InitialSize int64
	OptimalCost float64
	OptimalSize int64
	BestCost    float64
	BestSize    int64
	Budget      int64
}

// Figure4 tunes the 22-query TPC-H workload for indexes under a budget of
// about 30% of the optimal configuration's size and returns the frontier.
func Figure4(cfg Config) (*Fig4Result, error) {
	db := datagen.TPCH(cfg.SF)
	w, err := workloads.TPCH22()
	if err != nil {
		return nil, err
	}
	probe, err := core.NewTuner(db, w, core.Options{NoViews: true})
	if err != nil {
		return nil, err
	}
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		return nil, err
	}
	optSize := probe.Opt.Sizer().ConfigBytes(optCfg)
	budget := optSize * 3 / 10

	tn, err := core.NewTuner(db, w, core.Options{
		NoViews:       true,
		SpaceBudget:   budget,
		MaxIterations: cfg.MaxIterations * 2,
	})
	if err != nil {
		return nil, err
	}
	res, err := tn.Tune()
	if err != nil {
		return nil, err
	}
	return &Fig4Result{
		Frontier:    res.Frontier,
		InitialCost: res.Initial.Cost,
		InitialSize: res.Initial.SizeBytes,
		OptimalCost: res.Optimal.Cost,
		OptimalSize: res.Optimal.SizeBytes,
		BestCost:    res.Best.Cost,
		BestSize:    res.Best.SizeBytes,
		Budget:      budget,
	}, nil
}

// ---------------------------------------------------------------------
// Figure 6: candidate transformations per iteration.
// ---------------------------------------------------------------------

// Figure6 returns the per-iteration count of applicable transformations
// during a TPC-H relaxation run; the paper's point is that the space is
// far too large for exhaustive search.
func Figure6(cfg Config) ([]int, error) {
	db := datagen.TPCH(cfg.SF)
	w, err := workloads.TPCH22()
	if err != nil {
		return nil, err
	}
	probe, err := core.NewTuner(db, w, core.Options{NoViews: true})
	if err != nil {
		return nil, err
	}
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		return nil, err
	}
	optSize := probe.Opt.Sizer().ConfigBytes(optCfg)
	tn, err := core.NewTuner(db, w, core.Options{
		NoViews:       true,
		SpaceBudget:   optSize / 4,
		MaxIterations: cfg.MaxIterations,
	})
	if err != nil {
		return nil, err
	}
	res, err := tn.Tune()
	if err != nil {
		return nil, err
	}
	return res.TransCensus, nil
}

// ---------------------------------------------------------------------
// Figures 8 and 9: ΔImprovement = Impr(PTT) − Impr(CTT).
// ---------------------------------------------------------------------

// DeltaRow is one tuned workload in a Figure 8/9 sweep.
type DeltaRow struct {
	Workload string
	Database string
	Views    bool
	ImprPTT  float64
	ImprCTT  float64
	Delta    float64
}

// Figure8 compares the two tuners without constraints on SELECT-only
// workloads over all three database families, with and without views.
func Figure8(cfg Config) ([]DeltaRow, error) {
	pool, err := workloadPool(cfg, false)
	if err != nil {
		return nil, err
	}
	return runDeltaSweep(cfg, pool, 0)
}

// Figure9 compares the tuners on UPDATE workloads. PTT runs with a time
// budget (15/30 minutes in the paper, scaled here), CTT unbounded.
func Figure9(cfg Config) ([]DeltaRow, error) {
	pool, err := workloadPool(cfg, true)
	if err != nil {
		return nil, err
	}
	budget := cfg.PTTTimeBudget
	if budget == 0 {
		budget = 20 * time.Second
	}
	return runDeltaSweep(cfg, pool, budget)
}

func runDeltaSweep(cfg Config, pool []poolItem, pttBudget time.Duration) ([]DeltaRow, error) {
	var rows []DeltaRow
	for _, item := range pool {
		tnC, err := core.NewTuner(item.db, item.w, core.Options{NoViews: item.noViews})
		if err != nil {
			return nil, err
		}
		ctt, err := baseline.Tune(tnC, baseline.Options{NoViews: item.noViews})
		if err != nil {
			return nil, err
		}
		tnP, err := core.NewTuner(item.db, item.w, core.Options{
			NoViews:       item.noViews,
			MaxIterations: cfg.MaxIterations,
			TimeBudget:    pttBudget,
		})
		if err != nil {
			return nil, err
		}
		ptt, err := tnP.Tune()
		if err != nil {
			return nil, err
		}
		rows = append(rows, DeltaRow{
			Workload: item.label,
			Database: item.db.Name,
			Views:    !item.noViews,
			ImprPTT:  ptt.ImprovementPct(),
			ImprCTT:  ctt.ImprovementPct(),
			Delta:    ptt.ImprovementPct() - ctt.ImprovementPct(),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Figure 10: recommendation quality under varying storage constraints.
// ---------------------------------------------------------------------

// Fig10Row is one storage-budget point of the sweep.
type Fig10Row struct {
	// PctSpace is the budget position between the base configuration's
	// size (0) and the optimal configuration's size (100).
	PctSpace int
	Budget   int64
	ImprPTT  float64
	ImprCTT  float64
}

// Figure10 sweeps the storage constraint between the minimum and optimal
// configuration sizes for the TPC-H workload (indexes only) and tunes
// with both tools at every point. The paper's shape: PTT improves
// monotonically with space, CTT may regress.
func Figure10(cfg Config) ([]Fig10Row, error) {
	db := datagen.TPCH(cfg.SF)
	w, err := workloads.TPCH22()
	if err != nil {
		return nil, err
	}
	probe, err := core.NewTuner(db, w, core.Options{NoViews: true})
	if err != nil {
		return nil, err
	}
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		return nil, err
	}
	optSize := probe.Opt.Sizer().ConfigBytes(optCfg)
	minSize := probe.Opt.Sizer().ConfigBytes(probe.Base)
	initial, err := probe.Evaluate(probe.Base)
	if err != nil {
		return nil, err
	}

	var rows []Fig10Row
	for _, pct := range []int{10, 25, 40, 55, 70, 85, 100} {
		budget := minSize + (optSize-minSize)*int64(pct)/100
		tnP, err := core.NewTuner(db, w, core.Options{
			NoViews:       true,
			SpaceBudget:   budget,
			MaxIterations: cfg.MaxIterations,
		})
		if err != nil {
			return nil, err
		}
		ptt, err := tnP.Tune()
		if err != nil {
			return nil, err
		}
		tnC, err := core.NewTuner(db, w, core.Options{NoViews: true})
		if err != nil {
			return nil, err
		}
		ctt, err := baseline.Tune(tnC, baseline.Options{NoViews: true, SpaceBudget: budget})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{
			PctSpace: pct,
			Budget:   budget,
			ImprPTT:  core.Improvement(initial.Cost, ptt.Best.Cost),
			ImprCTT:  core.Improvement(initial.Cost, ctt.Best.Cost),
		})
	}
	return rows, nil
}
