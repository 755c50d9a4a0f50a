package experiments

import (
	"fmt"
	"io"
)

// RenderTable1 prints Table 1 rows.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: index and view requests for the 22-query TPC-H workload")
	fmt.Fprintf(w, "%-12s %7s %14s %13s\n", "query", "tables", "index reqs", "view reqs")
	var ti, tv int64
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7d %14d %13d\n", r.QueryID, r.Tables, r.IndexRequests, r.ViewRequests)
		ti += r.IndexRequests
		tv += r.ViewRequests
	}
	fmt.Fprintf(w, "%-12s %7s %14d %13d\n", "total", "", ti, tv)
}

// RenderTable2 prints the experimental-setting inventory.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: databases and workloads used in the experiments")
	fmt.Fprintf(w, "%-8s %7s %12s %9s  %s\n", "database", "tables", "rows", "raw MB", "workloads")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7d %12d %9.1f  %s\n", r.Database, r.Tables, r.Rows, r.RawMB, r.Workloads)
	}
}

// RenderTable3 prints tuning-time comparisons.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: tuning time for the most expensive workloads (no constraints)")
	fmt.Fprintf(w, "%-16s %10s %10s %9s %9s %9s %9s\n",
		"workload", "time CTT", "time PTT", "callsCTT", "callsPTT", "imprCTT", "imprPTT")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %10s %10s %9d %9d %8.1f%% %8.1f%%\n",
			r.Workload, r.TimeCTT.Round(1e6), r.TimePTT.Round(1e6),
			r.CallsCTT, r.CallsPTT, r.ImprCTT, r.ImprPTT)
	}
}

// RenderFigure3 prints the convergence trace.
func RenderFigure3(w io.Writer, res *Fig3Result) {
	fmt.Fprintln(w, "Figure 3: bottom-up best configuration over time vs. the optimal bound")
	fmt.Fprintf(w, "initial cost: %.1f   optimal-configuration bound: %.1f\n", res.InitialCost, res.OptimalCost)
	fmt.Fprintf(w, "%7s %12s %12s %9s\n", "step", "elapsed", "best cost", "impr")
	for _, p := range res.Progress {
		fmt.Fprintf(w, "%7d %12s %12.1f %8.1f%%\n",
			p.Step, p.Elapsed.Round(1e6), p.BestCost, 100*(1-p.BestCost/res.InitialCost))
	}
}

// RenderFigure4 prints the relaxation frontier.
func RenderFigure4(w io.Writer, res *Fig4Result) {
	fmt.Fprintln(w, "Figure 4: relaxation-based search frontier (TPC-H, indexes only)")
	fmt.Fprintf(w, "initial: size=%s cost=%.1f | optimal: size=%s cost=%.1f | budget=%s -> best: size=%s cost=%.1f\n",
		mb(res.InitialSize), res.InitialCost, mb(res.OptimalSize), res.OptimalCost,
		mb(res.Budget), mb(res.BestSize), res.BestCost)
	fmt.Fprintf(w, "%6s %12s %12s %6s\n", "iter", "size", "cost", "fits")
	for _, p := range res.Frontier {
		fits := ""
		if p.Fits {
			fits = "yes"
		}
		fmt.Fprintf(w, "%6d %12s %12.1f %6s\n", p.Iteration, mb(p.SizeBytes), p.Cost, fits)
	}
}

// RenderFigure6 prints the transformation census.
func RenderFigure6(w io.Writer, census []int) {
	fmt.Fprintln(w, "Figure 6: candidate transformations available per iteration")
	fmt.Fprintf(w, "%6s %16s\n", "iter", "transformations")
	for i, c := range census {
		fmt.Fprintf(w, "%6d %16d\n", i+1, c)
	}
}

// RenderDeltaRows prints a Figure 8/9 sweep with a summary histogram.
func RenderDeltaRows(w io.Writer, title string, rows []DeltaRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-18s %-7s %-6s %9s %9s %9s\n", "workload", "db", "views", "imprPTT", "imprCTT", "delta")
	ties, wins, losses := 0, 0, 0
	for _, r := range rows {
		views := "no"
		if r.Views {
			views = "yes"
		}
		fmt.Fprintf(w, "%-18s %-7s %-6s %8.1f%% %8.1f%% %+8.1f%%\n",
			r.Workload, r.Database, views, r.ImprPTT, r.ImprCTT, r.Delta)
		switch {
		case r.Delta > 1:
			wins++
		case r.Delta < -1:
			losses++
		default:
			ties++
		}
	}
	n := len(rows)
	if n == 0 {
		return
	}
	fmt.Fprintf(w, "summary: %d workloads — PTT wins %d (%.0f%%), ties %d (%.0f%%), losses %d (%.0f%%)\n",
		n, wins, pct(wins, n), ties, pct(ties, n), losses, pct(losses, n))
}

// RenderFigure10 prints the storage-constraint sweep.
func RenderFigure10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintln(w, "Figure 10: recommendation quality under varying storage constraints")
	fmt.Fprintf(w, "%8s %12s %9s %9s\n", "space%", "budget", "imprPTT", "imprCTT")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d%% %12s %8.1f%% %8.1f%%\n", r.PctSpace, mb(r.Budget), r.ImprPTT, r.ImprCTT)
	}
}

func pct(a, n int) float64 { return 100 * float64(a) / float64(n) }

func mb(bytes int64) string {
	switch {
	case bytes >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(bytes)/(1<<30))
	case bytes >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(bytes)/(1<<20))
	default:
		return fmt.Sprintf("%.0fKB", float64(bytes)/(1<<10))
	}
}
