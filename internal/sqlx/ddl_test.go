package sqlx

import "testing"

func TestParseCreateIndex(t *testing.T) {
	stmt, err := Parse("CREATE INDEX ix1 ON lineitem (l_shipdate, l_suppkey) INCLUDE (l_extendedprice)")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ci := stmt.(*CreateIndexStmt)
	if ci.Name != "ix1" || ci.Table != "lineitem" || ci.Clustered {
		t.Fatalf("shape: %+v", ci)
	}
	if len(ci.Keys) != 2 || ci.Keys[0] != "l_shipdate" {
		t.Errorf("keys: %v", ci.Keys)
	}
	if len(ci.Include) != 1 || ci.Include[0] != "l_extendedprice" {
		t.Errorf("include: %v", ci.Include)
	}
}

func TestParseCreateClusteredIndex(t *testing.T) {
	stmt, err := Parse("CREATE CLUSTERED INDEX c ON t (a)")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !stmt.(*CreateIndexStmt).Clustered {
		t.Error("clustered flag lost")
	}
}

func TestParseCreateView(t *testing.T) {
	stmt, err := Parse("CREATE VIEW v AS SELECT a, SUM(b) FROM t WHERE a > 1 GROUP BY a")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cv := stmt.(*CreateViewStmt)
	if cv.Name != "v" || cv.Select == nil || len(cv.Select.GroupBy) != 1 {
		t.Fatalf("shape: %+v", cv)
	}
}

func TestCreateStatementsSQLRoundTrip(t *testing.T) {
	for _, src := range []string{
		"CREATE INDEX ix ON t (a, b) INCLUDE (c)",
		"CREATE CLUSTERED INDEX cix ON t (a)",
		"CREATE VIEW v AS SELECT a FROM t WHERE a < 5",
	} {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		s2, err := Parse(s1.SQL())
		if err != nil {
			t.Fatalf("reparse %q: %v", s1.SQL(), err)
		}
		if s1.SQL() != s2.SQL() {
			t.Errorf("not a fixpoint: %q vs %q", s1.SQL(), s2.SQL())
		}
	}
}

func TestParseCreateErrors(t *testing.T) {
	for _, src := range []string{
		"CREATE TABLE t (a)",
		"CREATE INDEX ON t (a)",
		"CREATE INDEX i t (a)",
		"CREATE INDEX i ON t ()",
		"CREATE CLUSTERED VIEW v AS SELECT a FROM t",
		"CREATE VIEW v SELECT a FROM t",
		"CREATE VIEW v AS",
		"CREATE VIEW v AS UPDATE t SET a = 1",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseScriptMixedDDL(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE VIEW v AS SELECT a FROM t;
		CREATE INDEX i ON v (a);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("statements: %d", len(stmts))
	}
	if stmts[0].Kind() != StmtCreateView || stmts[1].Kind() != StmtCreateIndex {
		t.Error("kinds wrong")
	}
}
