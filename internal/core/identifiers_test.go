package core

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/physical"
	"repro/internal/sqlx"
	"repro/internal/workloads"
)

// upperIdentifiers returns src with the ASCII letters of every identifier
// token upper-cased; keywords, numbers and string literals are left as
// they are.
func upperIdentifiers(t *testing.T, src string) string {
	t.Helper()
	toks, err := sqlx.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	b := []byte(src)
	for _, tok := range toks {
		if tok.Kind != sqlx.TokIdent {
			continue
		}
		for i := tok.Pos; i < tok.Pos+len(tok.Text); i++ {
			if 'a' <= b[i] && b[i] <= 'z' {
				b[i] -= 'a' - 'A'
			}
		}
	}
	return string(b)
}

// TestIdentifierCaseDoesNotChangeTuning: identifiers are matched
// case-insensitively once, at bind, and everything downstream compares
// the catalog's spelling. TPC-H 22 with every identifier upper-cased must
// therefore tune, views on and off, to the DDL, cost, optimizer calls and
// iterations of the lower-case text.
func TestIdentifierCaseDoesNotChangeTuning(t *testing.T) {
	db := datagen.TPCH(0.001)
	lower := workloads.TPCH22SQL()
	upper := make([]string, len(lower))
	for i, q := range lower {
		upper[i] = upperIdentifiers(t, q)
	}
	if upper[0] == lower[0] {
		t.Fatal("upper-casing left Q1 as it was")
	}
	for _, noViews := range []bool{false, true} {
		tune := func(sqls []string) *Result {
			w, err := workloads.FromStatements("tpch22", "tpch", sqls)
			if err != nil {
				t.Fatal(err)
			}
			tn, err := NewTuner(db, w, Options{Parallelism: 1, NoViews: noViews, SpaceBudget: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tn.Tune()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want, got := tune(lower), tune(upper)
		if w, g := physical.ConfigurationDDL(want.Best.Config), physical.ConfigurationDDL(got.Best.Config); w != g {
			t.Errorf("views off %v: DDL differs\nlower-case:\n%s\nupper-case:\n%s", noViews, w, g)
		}
		if math.Float64bits(want.Best.Cost) != math.Float64bits(got.Best.Cost) {
			t.Errorf("views off %v: cost %v, lower-case %v", noViews, got.Best.Cost, want.Best.Cost)
		}
		if want.OptimizerCalls != got.OptimizerCalls || want.Iterations != got.Iterations {
			t.Errorf("views off %v: %d calls, %d iterations; lower-case %d, %d",
				noViews, got.OptimizerCalls, got.Iterations, want.OptimizerCalls, want.Iterations)
		}
		t.Logf("views off %v: cost %.2f, %d calls, %d iterations", noViews, want.Best.Cost, want.OptimizerCalls, want.Iterations)
	}
}
