package optimizer

import (
	"math"
	"testing"

	"repro/internal/sqlx"
)

func TestBindClassifiesPredicates(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, `
		SELECT r.a, u.x FROM r, u
		WHERE r.a = u.fk AND r.b < 100 AND r.c = 3 AND r.a + r.b > 50 AND r.s = 'hello'`)

	if len(q.Joins) != 1 {
		t.Fatalf("joins: %v", q.Joins)
	}
	rp := q.TablePred("r")
	if len(rp.Sargs) != 3 { // b < 100, c = 3, s = 'hello'
		t.Errorf("r sargs: %+v", rp.Sargs)
	}
	if len(rp.Others) != 1 { // a + b > 50
		t.Errorf("r others: %+v", rp.Others)
	}
	if len(q.CrossOthers) != 0 {
		t.Errorf("cross others: %+v", q.CrossOthers)
	}
}

func TestBindSelectivityFromStats(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "SELECT a FROM r WHERE c = 3")
	sel := q.TablePred("r").Sargs[0].Sel
	// c has 10 distinct uniform values: selectivity near 0.1.
	if sel < 0.03 || sel > 0.3 {
		t.Errorf("c = 3 selectivity %g, expected near 0.1", sel)
	}

	q2 := mustBind(t, db, "SELECT a FROM r WHERE b < 500")
	sel2 := q2.TablePred("r").Sargs[0].Sel
	if sel2 < 0.35 || sel2 > 0.65 {
		t.Errorf("b < 500 selectivity %g, expected near 0.5", sel2)
	}
}

func TestBindMergesRangesOnSameColumn(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "SELECT a FROM r WHERE b >= 100 AND b < 300")
	sargs := q.TablePred("r").Sargs
	if len(sargs) != 1 {
		t.Fatalf("expected one merged sarg, got %+v", sargs)
	}
	iv := sargs[0].Iv
	if iv.Lo != 100 || iv.Hi != 300 || !iv.LoIncl || iv.HiIncl {
		t.Errorf("merged interval: %v", iv)
	}
}

func TestBindUnqualifiedResolution(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "SELECT x FROM r, u WHERE fk = 3")
	if len(q.TablePred("u").Sargs) != 1 {
		t.Error("fk should resolve to table u")
	}
	// "id" exists in both tables: ambiguous.
	stmt, _ := sqlx.Parse("SELECT id FROM r, u")
	if _, err := Bind(db, stmt); err == nil {
		t.Error("ambiguous column should fail to bind")
	}
}

func TestBindRejectsSelfJoin(t *testing.T) {
	db := testDB(t)
	stmt, _ := sqlx.Parse("SELECT r1.a FROM r r1, r r2 WHERE r1.id = r2.id")
	if _, err := Bind(db, stmt); err == nil {
		t.Error("self-joins are unsupported and must be rejected")
	}
}

// A Query that kept no parse tree hands Bind nil: an error, not a panic.
func TestBindRejectsNilStatement(t *testing.T) {
	if _, err := Bind(testDB(t), nil); err == nil {
		t.Error("binding no statement must fail")
	}
}

func TestBindRejectsUnknownNames(t *testing.T) {
	db := testDB(t)
	for _, src := range []string{
		"SELECT a FROM missing",
		"SELECT missing FROM r",
		"SELECT a FROM r WHERE nope = 1",
		"SELECT z.a FROM r",
	} {
		stmt, err := sqlx.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := Bind(db, stmt); err == nil {
			t.Errorf("Bind(%q) should fail", src)
		}
	}
}

func TestBindNeededColumns(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "SELECT a, SUM(b) FROM r WHERE c = 1 GROUP BY a ORDER BY a")
	needed := q.NeededCols("r")
	want := []string{"a", "b", "c"}
	if len(needed) != len(want) {
		t.Fatalf("needed: %v", needed)
	}
	for i := range want {
		if needed[i] != want[i] {
			t.Errorf("needed[%d] = %s, want %s", i, needed[i], want[i])
		}
	}
}

func TestBindUpdateSeparation(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "UPDATE r SET a = b + 1 WHERE c < 5")
	if q.Kind != sqlx.StmtUpdate || q.UpdateTable != "r" {
		t.Fatalf("update shape: %+v", q)
	}
	if len(q.SetCols) != 1 || q.SetCols[0] != "a" {
		t.Errorf("set cols: %v", q.SetCols)
	}
	// The pure select part needs b (from the SET expression) and c.
	needed := q.NeededCols("r")
	if !containsStr(needed, "b") || !containsStr(needed, "c") {
		t.Errorf("needed: %v", needed)
	}
}

func TestBindDeleteAffectsAllColumns(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "DELETE FROM u WHERE x = 1")
	if len(q.SetCols) != 3 {
		t.Errorf("delete should mark every column: %v", q.SetCols)
	}
}

func TestBindInsert(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "INSERT INTO u VALUES (1, 2, 3), (4, 5, 6)")
	if q.InsertRows != 2 || q.UpdateTable != "u" {
		t.Errorf("insert: %+v", q)
	}
}

func TestBindStringInequalityIsOther(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "SELECT a FROM r WHERE s > 'm'")
	tp := q.TablePred("r")
	if len(tp.Sargs) != 0 || len(tp.Others) != 1 {
		t.Errorf("string inequality should be non-sargable: %+v", tp)
	}
}

func TestBindNotEqualsIsOther(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "SELECT a FROM r WHERE b <> 5")
	tp := q.TablePred("r")
	if len(tp.Sargs) != 0 || len(tp.Others) != 1 {
		t.Errorf("<> should be non-sargable: %+v", tp)
	}
	if tp.Others[0].Sel < 0.9 {
		t.Errorf("<> selectivity should be high: %g", tp.Others[0].Sel)
	}
}

func TestBindDisjunctionSelectivity(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "SELECT a FROM r WHERE (c = 1 OR c = 2)")
	tp := q.TablePred("r")
	if len(tp.Others) != 1 {
		t.Fatalf("disjunction should be one other-conjunct: %+v", tp)
	}
	sel := tp.Others[0].Sel
	if sel < 0.1 || sel > 0.35 {
		t.Errorf("c=1 OR c=2 selectivity %g, expected near 0.2", sel)
	}
}

func TestTotalSelectivityProduct(t *testing.T) {
	db := testDB(t)
	q := mustBind(t, db, "SELECT a FROM r WHERE c = 3 AND b < 500")
	tp := q.TablePred("r")
	want := tp.Sargs[0].Sel * tp.Sargs[1].Sel
	if math.Abs(tp.TotalSelectivity()-want) > 1e-12 {
		t.Errorf("TotalSelectivity %g, want %g", tp.TotalSelectivity(), want)
	}
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
