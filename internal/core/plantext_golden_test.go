package core

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/workloads"
)

// planTextExtras join their tables beside a comparison across them (the
// optimizer puts a cross-table Filter above the join) and over no join
// predicate at all (only nested loops can join them).
var planTextExtras = []string{
	`SELECT l_orderkey, o_orderdate FROM lineitem, orders
	 WHERE l_orderkey = o_orderkey AND l_shipdate > o_orderdate AND l_receiptdate > o_orderdate AND o_totalprice > 400000`,
	`SELECT r_name, n_name FROM region, nation WHERE r_regionkey > 2`,
}

// planTextAccess read one table through two secondary indexes, so the
// optimizer intersects their rids, filters after the intersection, and
// filters after a rid lookup below a sort.
var planTextAccess = []string{
	`SELECT l_orderkey FROM lineitem WHERE l_partkey = 7 AND l_suppkey = 3`,
	`SELECT l_orderkey FROM lineitem WHERE l_partkey = 7 AND l_suppkey = 3 AND l_quantity < 10`,
	`SELECT l_orderkey FROM lineitem WHERE l_partkey = 7 AND l_quantity < 10 ORDER BY l_comment`,
}

// planText renders plan.Format of every statement of tn's workload under
// cfg, each under a header naming the case and the statement, followed
// by the plan's index usage records and the views it reads.
func planText(t *testing.T, buf *bytes.Buffer, name string, tn *Tuner, cfg *physical.Configuration) {
	t.Helper()
	for _, tq := range tn.Queries {
		qp, err := tn.Opt.Optimize(tq.Bound, cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", name, tq.Query.ID, err)
		}
		fmt.Fprintf(buf, "## %s %s cost=%v\n%s", name, tq.Query.ID, qp.Cost.Total(), plan.Format(qp.Root))
		for _, u := range qp.Usages {
			fmt.Fprintf(buf, "usage %s seek=%t cols=%v lookedup=%t intersect=%t order=%v view=%q\n",
				u, u.Seek, u.SeekCols, u.LookedUp, u.InIntersection, u.OrderCols, u.ViewName)
		}
		if len(qp.UsedViews) > 0 {
			fmt.Fprintf(buf, "views %v\n", qp.UsedViews)
		}
	}
}

// TestPlanTextMatchesGolden holds the EXPLAIN text of the plans Optimize
// returns — every node's label, rows and cost — to a golden captured
// before the join enumeration kept priced decisions instead of plan
// nodes: TPC-H 22, its refresh statements and planTextExtras under the
// base configuration and under the §2 optimal configuration with and
// without views, a generated bench workload with updates under its base
// and optimal configurations, and planTextAccess under the base
// configuration plus two secondary lineitem indexes; each plan with its
// index usage records.
func TestPlanTextMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	sqls := append(append(workloads.TPCH22SQL(), workloads.TPCHRefresh()...), planTextExtras...)
	w, err := workloads.FromStatements("plantext", "tpch", sqls)
	if err != nil {
		t.Fatal(err)
	}
	db := datagen.TPCH(0.001)
	for _, noViews := range []bool{false, true} {
		tn, err := NewTuner(db, w, Options{NoViews: noViews, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !noViews {
			planText(t, &buf, "tpch/base", tn, tn.Base)
		}
		opt, err := tn.OptimalConfiguration()
		if err != nil {
			t.Fatal(err)
		}
		planText(t, &buf, fmt.Sprintf("tpch/optimal/noviews=%t", noViews), tn, opt)
	}
	bdb, bw := benchWorkload(t, 7, 0.35)
	bt, err := NewTuner(bdb, bw, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	planText(t, &buf, "bench/base", bt, bt.Base)
	opt, err := bt.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	planText(t, &buf, "bench/optimal", bt, opt)

	aw, err := workloads.FromStatements("access", "tpch", planTextAccess)
	if err != nil {
		t.Fatal(err)
	}
	at, err := NewTuner(db, aw, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	acfg := at.Base.Clone()
	acfg.AddIndex(physical.NewIndex("lineitem", []string{"l_partkey"}, nil, false))
	acfg.AddIndex(physical.NewIndex("lineitem", []string{"l_suppkey"}, nil, false))
	planText(t, &buf, "tpch/two-secondary", at, acfg)

	got := buf.String()
	for _, op := range []string{"HashJoin(", "MergeJoin(", "IndexNLJoin(", "NLJoin(", "Filter(lineitem.l_shipdate > orders.o_orderdate",
		"RidIntersect", "Filter(post-intersect-residual", "Filter(post-lookup-residual"} {
		if !regexp.MustCompile(`(?m)^ *` + regexp.QuoteMeta(op)).MatchString(got) {
			t.Errorf("no plan holds %s", op)
		}
	}
	want, err := os.ReadFile("testdata/plans.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("plan text diverges at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plan text has %d lines, golden %d", len(gl), len(wl))
	}
}
