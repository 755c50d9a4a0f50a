package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlx"
	"repro/tuner"
)

func bindAll(t *testing.T, db *catalog.Database, templates []*template) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var buf []byte
	for ti, tpl := range templates {
		for _, distinct := range []bool{false, true} {
			for k := 0; k < 5; k++ {
				buf = tpl.render(buf[:0], rng, distinct, int64(1000+k))
				stmt, err := sqlx.Parse(string(buf))
				if err != nil {
					t.Fatalf("template %d does not parse: %v\n%s", ti, err, buf)
				}
				if _, err := optimizer.Bind(db, stmt); err != nil {
					t.Fatalf("template %d does not bind: %v\n%s", ti, err, buf)
				}
				if (stmt.Kind() != sqlx.StmtSelect) != tpl.update {
					t.Fatalf("template %d: update flag %v disagrees with parsed kind", ti, tpl.update)
				}
			}
		}
	}
}

func TestTemplatesParseAndBind(t *testing.T) {
	bindAll(t, tuner.TPCH(0.01), tpchTemplates)
	bindAll(t, tuner.TPCH(0.01), serveTemplates)
	bindAll(t, tuner.Bench(0.01), benchTemplates)
}

func TestMalformedStatementsAreRejected(t *testing.T) {
	for _, s := range malformed {
		if _, err := sqlx.Parse(s); err == nil {
			t.Errorf("malformed statement parses: %s", s)
		}
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed int64) []byte {
		g := newStream(seed, 0, 2, tpchTemplates, true, 0.01)
		var out []byte
		for i := 0; i < 20; i++ {
			out = g.batch(out, 100)
		}
		return out
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
}

func TestBatchIsValidJSONWithKnownMalformedCount(t *testing.T) {
	g := newStream(3, 1, 2, tpchTemplates, true, 0.05)
	seen := map[string]bool{}
	bad := 0
	for i := 0; i < 30; i++ {
		var req struct {
			Statements []string `json:"statements"`
		}
		if err := json.Unmarshal(g.batch(nil, 100), &req); err != nil {
			t.Fatalf("batch is not JSON: %v", err)
		}
		if len(req.Statements) != 100 {
			t.Fatalf("batch carries %d statements, want 100", len(req.Statements))
		}
		for _, s := range req.Statements {
			stmt, err := sqlx.Parse(s)
			if err != nil {
				bad++
				continue
			}
			key := stmt.SQL()
			if seen[key] {
				t.Fatalf("distinct stream repeated a statement: %s", key)
			}
			seen[key] = true
		}
	}
	if bad != g.bad || g.sent != 3000 || bad == 0 {
		t.Fatalf("malformed count: parser rejected %d, stream counted %d of %d", bad, g.bad, g.sent)
	}
}

func TestPoolStreamRepeatsItsPool(t *testing.T) {
	pool := distinctPool(5, tpchTemplates, 200)
	keys := map[string]bool{}
	for _, s := range pool {
		stmt, err := sqlx.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		keys[stmt.SQL()] = true
	}
	if len(keys) != 200 {
		t.Fatalf("pool has %d canonical statements, want 200", len(keys))
	}
	g := newStream(5, 0, 2, tpchTemplates, false, 0).withPool(pool, 1.1)
	for _, s := range g.statements(5000) {
		stmt, err := sqlx.Parse(s)
		if err != nil || !keys[stmt.SQL()] {
			t.Fatalf("pool stream left its pool: %s", s)
		}
	}
}
