package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/physical"
)

func TestParseConfigurationScript(t *testing.T) {
	tn := tpchTuner(t, Options{})
	cfg, err := tn.ParseConfigurationScript(`
		CREATE INDEX ix1 ON lineitem (l_shipdate) INCLUDE (l_extendedprice, l_discount);
		CREATE CLUSTERED INDEX cix1 ON returnsless (l_orderkey);
	`)
	if err == nil {
		t.Fatal("unknown table should fail")
	}
	cfg, err = tn.ParseConfigurationScript(`
		CREATE INDEX ix1 ON lineitem (l_shipdate) INCLUDE (l_extendedprice, l_discount);
		CREATE VIEW vp AS SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority;
		CREATE INDEX ixv ON vp (orders_o_orderpriority);
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Base indexes + user index + view clustered index + user view index.
	if cfg.NumViews() != 1 {
		t.Errorf("views: %d", cfg.NumViews())
	}
	v := cfg.Views()[0]
	if cfg.ClusteredOn(v.Name) == nil {
		t.Error("materialized view must get a clustered index")
	}
	found := false
	for _, ix := range cfg.IndexesOn("lineitem") {
		if !ix.Required && ix.Keys[0] == "l_shipdate" {
			found = true
			if !ix.HasColumn("l_extendedprice") {
				t.Error("INCLUDE columns lost")
			}
		}
	}
	if !found {
		t.Error("user index missing")
	}
}

func TestParseConfigurationScriptErrors(t *testing.T) {
	tn := tpchTuner(t, Options{})
	cases := []string{
		"CREATE INDEX i ON lineitem (nope)",
		"CREATE INDEX i ON lineitem (l_shipdate) INCLUDE (nope)",
		"CREATE CLUSTERED INDEX i ON lineitem (l_shipdate)", // PK clustered exists
		"SELECT l_shipdate FROM lineitem",                   // not DDL
		"CREATE INDEX i ON v_undefined (x)",
	}
	for _, src := range cases {
		if _, err := tn.ParseConfigurationScript(src); err == nil {
			t.Errorf("script %q should fail", src)
		}
	}
}

func TestWhatIfImprovesWithGoodIndex(t *testing.T) {
	tn := tpchTuner(t, Options{})
	cfg, err := tn.ParseConfigurationScript(
		"CREATE INDEX i ON orders (o_orderdate) INCLUDE (o_custkey, o_orderkey, o_shippriority, o_orderstatus, o_orderpriority)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.WhatIf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImprovementPct <= 0 {
		t.Errorf("useful index should improve the workload: %g%%", res.ImprovementPct)
	}
	if len(res.PerQuery) != len(tn.Queries) {
		t.Errorf("per-query entries: %d", len(res.PerQuery))
	}
	improvedSome := false
	for _, d := range res.PerQuery {
		if d.TargetCost < d.BaseCost {
			improvedSome = true
		}
		if d.TargetCost > d.BaseCost*1.0001 {
			t.Errorf("%s got worse under a pure addition: %g > %g", d.ID, d.TargetCost, d.BaseCost)
		}
	}
	if !improvedSome {
		t.Error("no query improved")
	}
}

func TestConfigurationDDLRoundTrips(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	ddl := physical.ConfigurationDDL(optCfg)
	if !strings.Contains(ddl, "CREATE INDEX") {
		t.Fatalf("no index DDL:\n%s", ddl)
	}
	reparsed, err := tn.ParseConfigurationScript(withoutComments(ddl))
	if err != nil {
		t.Fatalf("DDL does not round-trip: %v", err)
	}
	// Every non-required structure survives the round trip.
	for _, ix := range optCfg.Indexes() {
		if ix.Required {
			continue
		}
		if !reparsed.HasIndex(ix.ID()) {
			t.Errorf("index lost in round trip: %s", ix.ID())
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	rep := tn.BuildReport("tpch22", res)
	if rep.ImprovementPct != res.ImprovementPct() {
		t.Error("improvement mismatch")
	}
	if len(rep.PerQuery) != 22 {
		t.Errorf("per-query entries: %d", len(rep.PerQuery))
	}
	if !strings.Contains(rep.DDL, "CREATE") {
		t.Error("report DDL missing")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back := new(Report)
	if err := json.NewDecoder(&buf).Decode(back); err != nil {
		t.Fatal(err)
	}
	if back.Database != rep.Database || back.ImprovementPct != rep.ImprovementPct {
		t.Error("JSON round trip lost fields")
	}
	if len(back.PerQuery) != len(rep.PerQuery) {
		t.Error("per-query entries lost")
	}
}

func TestViewDDLParsesBack(t *testing.T) {
	tn := tpchTuner(t, Options{})
	script := `CREATE VIEW v AS SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate > 9131 GROUP BY l_shipmode`
	cfg, err := tn.ParseConfigurationScript(script)
	if err != nil {
		t.Fatal(err)
	}
	v := cfg.Views()[0]
	rendered := physical.ViewDDL(v)
	// Rename and reparse: definitions must be equivalent.
	cfg2, err := tn.ParseConfigurationScript(strings.Replace(rendered, v.Name, "v2", 1) + ";")
	if err != nil {
		t.Fatalf("view DDL does not round-trip: %v\n%s", err, rendered)
	}
	if cfg2.ViewBySignature(v.Signature()) == nil {
		t.Error("round-tripped view definition differs")
	}
}
