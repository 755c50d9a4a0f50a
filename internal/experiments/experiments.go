// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) plus the two in-text result figures (Figures 3 and 4),
// mapping each to a function that returns printable rows. The paperbench
// command and bench_test.go are thin wrappers over this package.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/workloads"
)

// Config scales the experiment suite. The defaults target CI-sized runs;
// raise SF and Workloads for paper-sized sweeps.
type Config struct {
	// SF is the database scale factor (fraction of full TPC-H scale).
	SF float64
	// Seed drives workload generation.
	Seed int64
	// Workloads is the number of generated workloads per database family
	// in the Figure 8/9 sweeps.
	Workloads int
	// QueriesPerWorkload sizes each generated workload.
	QueriesPerWorkload int
	// MaxIterations bounds each relaxation search.
	MaxIterations int
	// PTTTimeBudget bounds each relaxation run (Figure 9 gives PTT a
	// fixed budget, as §4.2 does).
	PTTTimeBudget time.Duration
}

// DefaultConfig returns the CI-sized configuration.
func DefaultConfig() Config {
	return Config{
		SF:                 0.001,
		Seed:               datagen.Seed,
		Workloads:          4,
		QueriesPerWorkload: 8,
		MaxIterations:      60,
	}
}

// Families lists the three database families used across experiments.
func Families() []string { return datagen.Names() }

// ---------------------------------------------------------------------
// Table 1: index and view requests for the 22-query TPC-H workload.
// ---------------------------------------------------------------------

// Table1Row is the per-query request count.
type Table1Row struct {
	QueryID       string
	Tables        int
	IndexRequests int64
	ViewRequests  int64
}

// Table1 counts the requests the instrumented optimizer issues per TPC-H
// query; the paper's point is that these counts stay small even for
// complex queries.
func Table1(cfg Config) ([]Table1Row, error) {
	db := datagen.TPCH(cfg.SF)
	w, err := workloads.TPCH22()
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, q := range w.Queries {
		single := &workloads.Workload{Name: q.ID, Database: w.Database, Queries: []*workloads.Query{q}}
		tn, err := core.NewTuner(db, single, core.Options{})
		if err != nil {
			return nil, err
		}
		ir, vr, err := tn.RequestCounts()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{QueryID: q.ID, Tables: countTables(tn), IndexRequests: ir, ViewRequests: vr})
	}
	return rows, nil
}

func countTables(tn *core.Tuner) int {
	if len(tn.Queries) == 0 {
		return 0
	}
	return len(tn.Queries[0].Bound.Tables)
}

// ---------------------------------------------------------------------
// Table 2: databases and workloads used in the experiments.
// ---------------------------------------------------------------------

// Table2Row summarizes one database family and its workloads.
type Table2Row struct {
	Database  string
	Tables    int
	Rows      int64
	RawMB     float64
	Workloads string
}

// Table2 reproduces the experimental-setting inventory.
func Table2(cfg Config) ([]Table2Row, error) {
	var rows []Table2Row
	for _, fam := range Families() {
		db, err := datagen.ByName(fam, cfg.SF)
		if err != nil {
			return nil, err
		}
		kind := "generated SPJG + update mixes"
		if fam == "tpch" {
			kind = "22-query TPC-H batch, refresh mixes, generated SPJG"
		}
		rows = append(rows, Table2Row{
			Database:  db.Name,
			Tables:    len(db.Tables()),
			Rows:      db.TotalRows(),
			RawMB:     float64(db.DataSize()) / (1 << 20),
			Workloads: kind,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Table 3: tuning time for the most expensive workloads (CTT vs PTT,
// no constraints).
// ---------------------------------------------------------------------

// Table3Row compares both tuners on one workload.
type Table3Row struct {
	Workload string
	TimeCTT  time.Duration
	TimePTT  time.Duration
	CallsCTT int64
	CallsPTT int64
	ImprCTT  float64
	ImprPTT  float64
}

// Table3 runs both tuners without constraints over a pool of workloads
// and reports the most expensive ones by CTT tuning time. PTT's time is
// the instrumented-optimization pass only (its starting point is already
// the answer, §4.1).
func Table3(cfg Config) ([]Table3Row, error) {
	var rows []Table3Row
	pool, err := workloadPool(cfg, false)
	if err != nil {
		return nil, err
	}
	for _, item := range pool {
		row := Table3Row{Workload: item.label}

		tnC, err := core.NewTuner(item.db, item.w, core.Options{NoViews: item.noViews})
		if err != nil {
			return nil, err
		}
		ctt, err := baseline.Tune(tnC, baseline.Options{NoViews: item.noViews})
		if err != nil {
			return nil, err
		}
		row.TimeCTT = ctt.Elapsed
		row.CallsCTT = ctt.OptimizerCalls
		row.ImprCTT = ctt.ImprovementPct()

		tnP, err := core.NewTuner(item.db, item.w, core.Options{NoViews: item.noViews, MaxIterations: cfg.MaxIterations})
		if err != nil {
			return nil, err
		}
		ptt, err := tnP.Tune()
		if err != nil {
			return nil, err
		}
		row.TimePTT = ptt.Elapsed
		row.CallsPTT = ptt.OptimizerCalls
		row.ImprPTT = ptt.ImprovementPct()
		rows = append(rows, row)
	}
	// Most expensive CTT runs first, top 10.
	sortRows := rows
	for i := 1; i < len(sortRows); i++ {
		for j := i; j > 0 && sortRows[j].TimeCTT > sortRows[j-1].TimeCTT; j-- {
			sortRows[j], sortRows[j-1] = sortRows[j-1], sortRows[j]
		}
	}
	if len(sortRows) > 10 {
		sortRows = sortRows[:10]
	}
	return sortRows, nil
}

// poolItem is one (database, workload, mode) tuning task.
type poolItem struct {
	label   string
	db      *catalog.Database
	w       *workloads.Workload
	noViews bool
}

// workloadPool builds the generated-workload pool used by Table 3 and
// Figures 8/9.
func workloadPool(cfg Config, withUpdates bool) ([]poolItem, error) {
	var out []poolItem
	for _, fam := range Families() {
		db, err := datagen.ByName(fam, cfg.SF)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Workloads; i++ {
			opt := workloads.DefaultGenOptions(fmt.Sprintf("%s-w%d", fam, i+1), cfg.Seed+int64(i)*101, cfg.QueriesPerWorkload)
			if withUpdates {
				opt.UpdateFraction = 0.35
				opt.Name += "-upd"
			}
			w, err := workloads.Generate(db, opt)
			if err != nil {
				return nil, err
			}
			for _, noViews := range []bool{true, false} {
				label := w.Name + "-I"
				if !noViews {
					label = w.Name + "-IV"
				}
				out = append(out, poolItem{label: label, db: db, w: w, noViews: noViews})
			}
		}
	}
	// The TPC-H 22-query batch joins the pool (SELECT-only case).
	if !withUpdates {
		db := datagen.TPCH(cfg.SF)
		w, err := workloads.TPCH22()
		if err != nil {
			return nil, err
		}
		out = append(out, poolItem{label: "tpch22-I", db: db, w: w, noViews: true})
		out = append(out, poolItem{label: "tpch22-IV", db: db, w: w, noViews: false})
	}
	return out, nil
}
