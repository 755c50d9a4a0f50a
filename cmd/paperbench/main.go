// Command paperbench regenerates the paper's evaluation: every table and
// figure of §4 plus the in-text result figures (3, 4, and 6).
//
// Usage:
//
//	paperbench -exp all
//	paperbench -exp table1
//	paperbench -exp fig8 -workloads 8 -queries 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1, table2, table3, fig3, fig4, fig6, fig8, fig9, fig10, validate, or all")
		sf        = flag.Float64("sf", 0.001, "database scale factor")
		nwl       = flag.Int("workloads", 4, "generated workloads per database family")
		queries   = flag.Int("queries", 8, "queries per generated workload")
		iters     = flag.Int("iters", 60, "relaxation iterations per tuning run")
		pttBudget = flag.Duration("ptt-time", 0, "PTT time budget for the update sweep (0 = default)")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.SF = *sf
	cfg.Workloads = *nwl
	cfg.QueriesPerWorkload = *queries
	cfg.MaxIterations = *iters
	cfg.PTTTimeBudget = *pttBudget

	wanted := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := wanted["all"]
	run := func(name string) bool { return all || wanted[name] }
	out := os.Stdout

	if run("table1") {
		step("Table 1")
		rows, err := experiments.Table1(cfg)
		check(err)
		experiments.RenderTable1(out, rows)
		fmt.Fprintln(out)
	}
	if run("table2") {
		step("Table 2")
		rows, err := experiments.Table2(cfg)
		check(err)
		experiments.RenderTable2(out, rows)
		fmt.Fprintln(out)
	}
	if run("table3") {
		step("Table 3")
		rows, err := experiments.Table3(cfg)
		check(err)
		experiments.RenderTable3(out, rows)
		fmt.Fprintln(out)
	}
	if run("fig3") {
		step("Figure 3")
		res, err := experiments.Figure3(cfg)
		check(err)
		experiments.RenderFigure3(out, res)
		fmt.Fprintln(out)
	}
	if run("fig4") {
		step("Figure 4")
		res, err := experiments.Figure4(cfg)
		check(err)
		experiments.RenderFigure4(out, res)
		fmt.Fprintln(out)
	}
	if run("fig6") {
		step("Figure 6")
		census, err := experiments.Figure6(cfg)
		check(err)
		experiments.RenderFigure6(out, census)
		fmt.Fprintln(out)
	}
	if run("fig8") {
		step("Figure 8")
		rows, err := experiments.Figure8(cfg)
		check(err)
		experiments.RenderDeltaRows(out, "Figure 8: ΔImprovement (PTT − CTT), SELECT-only, no constraints", rows)
		fmt.Fprintln(out)
	}
	if run("fig9") {
		step("Figure 9")
		rows, err := experiments.Figure9(cfg)
		check(err)
		experiments.RenderDeltaRows(out, "Figure 9: ΔImprovement (PTT − CTT), UPDATE workloads, PTT time-budgeted", rows)
		fmt.Fprintln(out)
	}
	if run("fig10") {
		step("Figure 10")
		rows, err := experiments.Figure10(cfg)
		check(err)
		experiments.RenderFigure10(out, rows)
		fmt.Fprintln(out)
	}
	if run("validate") {
		step("Validation")
		rows, err := experiments.Validate(cfg)
		check(err)
		experiments.RenderValidate(out, rows)
		fmt.Fprintln(out)
	}
}

var stepStart = time.Now()

func step(name string) {
	fmt.Fprintf(os.Stderr, "[paperbench] %s (t=%s)\n", name, time.Since(stepStart).Round(time.Millisecond))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}
