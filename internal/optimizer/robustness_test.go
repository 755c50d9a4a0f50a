package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/physical"
	"repro/internal/sqlx"
)

// TestJoinLimitEnforced: queries beyond MaxJoinTables are rejected with a
// clear error instead of exploding the DP table.
func TestJoinLimitEnforced(t *testing.T) {
	db := catalog.NewDatabase("wide")
	n := MaxJoinTables + 1
	var froms, joins []string
	for i := 0; i < n; i++ {
		tb, err := catalog.NewTable(fmt.Sprintf("w%d", i), 10, []catalog.Column{
			{Name: "id", Type: catalog.TypeInt, AvgWidth: 4, Stats: &catalog.ColumnStats{Distinct: 10, Min: 0, Max: 9, Numeric: true}},
		}, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		db.MustAddTable(tb)
		froms = append(froms, tb.Name)
		if i > 0 {
			joins = append(joins, fmt.Sprintf("w%d.id = w%d.id", i-1, i))
		}
	}
	src := "SELECT w0.id FROM " + strings.Join(froms, ", ") + " WHERE " + strings.Join(joins, " AND ")
	stmt, err := sqlx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Bind(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	o := New(db)
	cfg := physical.NewConfiguration()
	if _, err := o.Optimize(q, cfg); err == nil {
		t.Error("over-wide join should be rejected")
	} else if !strings.Contains(err.Error(), "join limit") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestEmptyTablePlans: zero-row tables still produce valid plans.
func TestEmptyTablePlans(t *testing.T) {
	db := catalog.NewDatabase("empty")
	tb, err := catalog.NewTable("e", 0, []catalog.Column{
		{Name: "id", Type: catalog.TypeInt, AvgWidth: 4, Stats: &catalog.ColumnStats{Distinct: 1, Min: 0, Max: 0, Numeric: true}},
		{Name: "v", Type: catalog.TypeInt, AvgWidth: 4, Stats: &catalog.ColumnStats{Distinct: 1, Min: 0, Max: 0, Numeric: true}},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	db.MustAddTable(tb)
	o := New(db)
	cfg := physical.NewConfiguration()
	ix := physical.NewIndex("e", []string{"id"}, []string{"v"}, true)
	ix.Required = true
	cfg.AddIndex(ix)
	q := mustBind(t, db, "SELECT v FROM e WHERE id = 3")
	p := mustPlan(t, o, q, cfg)
	if p.Cost.Total() < 0 {
		t.Errorf("negative cost: %v", p.Cost)
	}
}

// TestStatsSnapshotSemantics: Stats() returns a copy, not live counters.
func TestStatsSnapshotSemantics(t *testing.T) {
	db := testDB(t)
	o := New(db)
	cfg := baseCfg(db)
	snap := o.Stats()
	mustPlan(t, o, mustBind(t, db, "SELECT a FROM r"), cfg)
	if snap.OptimizeCalls == o.Stats().OptimizeCalls {
		t.Error("counter should have advanced on the optimizer")
	}
}

// TestHooksSuspendAndResume: structures created by a hook mid-optimization
// are visible to the same optimization (the §2 suspend/resume loop).
func TestHooksSuspendAndResume(t *testing.T) {
	db := testDB(t)
	o := New(db)
	cfg := baseCfg(db)
	injected := physical.NewIndex("r", []string{"b"}, []string{"a"}, false)
	o.SetHooks(&Hooks{OnIndexRequest: func(req *IndexRequest) {
		if req.Table == "r" {
			cfg.AddIndex(injected)
		}
	}})
	defer o.SetHooks(nil)
	q := mustBind(t, db, "SELECT a FROM r WHERE b = 7")
	p := mustPlan(t, o, q, cfg)
	if !p.UsesIndex(injected.ID()) {
		t.Error("hypothetical index injected by the hook was not considered")
	}
}

// TestIndexRequestShape: the (S, N, O, A) decomposition matches §2's
// definition on a representative query.
func TestIndexRequestShape(t *testing.T) {
	db := testDB(t)
	o := New(db)
	cfg := baseCfg(db)
	var got *IndexRequest
	o.SetHooks(&Hooks{OnIndexRequest: func(req *IndexRequest) {
		if req.Table == "r" && got == nil {
			got = req
		}
	}})
	defer o.SetHooks(nil)
	// τ_b Π_{b,pad} σ_{a<10 ∧ c=1 ∧ a+b>5}(r)
	q := mustBind(t, db, "SELECT b, pad FROM r WHERE a < 10 AND c = 1 AND a + b > 5 ORDER BY b")
	mustPlan(t, o, q, cfg)
	if got == nil {
		t.Fatal("no index request intercepted")
	}
	if len(got.S) != 2 {
		t.Errorf("S: %+v", got.S)
	}
	if len(got.N) != 1 || len(got.N[0]) != 2 {
		t.Errorf("N: %+v", got.N)
	}
	if len(got.O) != 1 || got.O[0] != "b" {
		t.Errorf("O: %v", got.O)
	}
	// A = referenced columns not in S/N/O: pad.
	if len(got.A) != 1 || got.A[0] != "pad" {
		t.Errorf("A: %v", got.A)
	}
}
