package workloads

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/sqlx"
)

func sigOf(t *testing.T, sql string) string {
	t.Helper()
	stmt, err := sqlx.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return SignatureOf(stmt)
}

// Literal values must not enter the signature: parameterized variants of
// one statement are the compression unit the sketch clusters on.
func TestSignatureIgnoresLiterals(t *testing.T) {
	a := sigOf(t, `SELECT l_quantity FROM lineitem WHERE l_shipdate >= 9131 AND l_partkey = 7`)
	b := sigOf(t, `SELECT l_quantity FROM lineitem WHERE l_shipdate >= 8000 AND l_partkey = 999`)
	if a != b {
		t.Errorf("literal change altered signature:\n  %s\n  %s", a, b)
	}
}

// Formatting and conjunct order must not matter either.
func TestSignatureCanonicalOrder(t *testing.T) {
	a := sigOf(t, `SELECT l_quantity FROM lineitem WHERE l_partkey = 7 AND l_shipdate >= 9131`)
	b := sigOf(t, `select l_quantity from lineitem where l_shipdate >= 8000 and l_partkey = 3`)
	if a != b {
		t.Errorf("conjunct order altered signature:\n  %s\n  %s", a, b)
	}
}

// Different shapes must produce different signatures.
func TestSignatureDistinguishesShapes(t *testing.T) {
	sigs := map[string]string{}
	for _, sql := range []string{
		`SELECT l_quantity FROM lineitem WHERE l_partkey = 7`,
		`SELECT l_quantity FROM lineitem WHERE l_partkey > 7`,
		`SELECT l_quantity FROM lineitem WHERE l_suppkey = 7`,
		`SELECT l_quantity FROM lineitem WHERE l_partkey = 7 ORDER BY l_shipdate`,
		`SELECT l_quantity FROM lineitem WHERE l_partkey = 7 ORDER BY l_shipdate DESC`,
		`SELECT l_extendedprice FROM lineitem WHERE l_partkey = 7`,
		`UPDATE lineitem SET l_quantity = 1 WHERE l_partkey = 7`,
		`DELETE FROM lineitem WHERE l_partkey = 7`,
	} {
		sig := sigOf(t, sql)
		if prev, dup := sigs[sig]; dup {
			t.Errorf("signature collision:\n  %s\n  %s\n  sig %s", prev, sql, sig)
		}
		sigs[sig] = sql
	}
}

// The signature mirrors the (S,N,O,A) request shape: sargable columns with
// operator class, non-sargable/join columns, order, additional columns.
func TestSignatureSNOAClasses(t *testing.T) {
	sig := sigOf(t, `SELECT o.o_totalprice FROM orders o, customer c `+
		`WHERE o.o_custkey = c.c_custkey AND o.o_orderdate >= 9131 AND c.c_mktsegment = 'BUILDING' `+
		`ORDER BY o.o_orderdate`)
	for _, want := range []string{
		"sel",
		"customer{S:c_mktsegment=;N:c_custkey}",
		"orders{S:o_orderdate~;N:o_custkey;O:o_orderdate;A:o_totalprice}",
	} {
		if !strings.Contains(sig, want) {
			t.Errorf("signature %q missing %q", sig, want)
		}
	}
}

// Table aliases resolve to table names so differently-aliased copies of a
// statement shape converge.
func TestSignatureResolvesAliases(t *testing.T) {
	a := sigOf(t, `SELECT l.l_quantity FROM lineitem l WHERE l.l_partkey = 7`)
	b := sigOf(t, `SELECT x.l_quantity FROM lineitem x WHERE x.l_partkey = 9`)
	if a != b {
		t.Errorf("alias choice altered signature:\n  %s\n  %s", a, b)
	}
	if !strings.Contains(a, "lineitem{") {
		t.Errorf("signature %q does not resolve alias to table name", a)
	}
}

func TestSignatureGroupByInducesOrder(t *testing.T) {
	sig := sigOf(t, `SELECT l_returnflag, SUM(l_quantity) FROM lineitem GROUP BY l_returnflag`)
	if !strings.Contains(sig, "O:l_returnflag") {
		t.Errorf("GROUP BY did not fill O: %q", sig)
	}
	// An explicit ORDER BY wins over the GROUP BY induced order.
	sig = sigOf(t, `SELECT l_returnflag, SUM(l_quantity) FROM lineitem GROUP BY l_returnflag ORDER BY l_linestatus`)
	if !strings.Contains(sig, "O:l_linestatus") {
		t.Errorf("ORDER BY did not fill O: %q", sig)
	}
}

// TestSignatureMatchesReference compares SignatureOf with the map-based
// builder it replaced on the TPC-H 22, generated workloads with updates,
// and statements that reach every branch of the extraction.
func TestSignatureMatchesReference(t *testing.T) {
	var stmts []sqlx.Statement
	for _, db := range []*catalog.Database{datagen.TPCH(0.001), datagen.Bench(0.001), datagen.DS1(0.001)} {
		for seed := int64(1); seed <= 8; seed++ {
			opt := DefaultGenOptions("sig", seed, 24)
			opt.UpdateFraction = 0.3
			w, err := Generate(db, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range w.Queries {
				stmts = append(stmts, q.Stmt)
			}
		}
	}
	texts := append(TPCH22SQL(), TPCHRefresh()...)
	texts = append(texts,
		// aliases, a self-join, an alias nothing binds
		`SELECT a.l_quantity, b.l_tax FROM lineitem a, lineitem b WHERE a.l_orderkey = b.l_orderkey AND a.l_partkey = 3`,
		`SELECT x.o_totalprice FROM orders o WHERE o.o_custkey = 7 AND x.o_orderdate > 3`,
		`SELECT o_totalprice FROM orders, orders WHERE o_custkey = 7`,
		`SELECT o_totalprice FROM orders orders WHERE orders.o_custkey = 7`,
		// unqualified columns over two tables share the "?" bucket
		`SELECT o_totalprice, c_name FROM orders, customer WHERE o_custkey = c_custkey AND c_acctbal > 10 ORDER BY c_name DESC`,
		// OR trees, NOT, NOT LIKE, NOT IN, <>, arithmetic, a flipped comparison
		`SELECT p_name FROM part WHERE (p_size = 1 OR p_brand = 'x') AND NOT p_type = 'y' AND p_name NOT LIKE 'a%' AND p_container NOT IN ('a', 'b')`,
		`SELECT p_name FROM part WHERE p_size <> 4 AND p_retailprice * 2 > 10 AND 5 < p_size AND 3 = p_partkey AND p_size + 1 = p_partkey`,
		// repeated sargable columns: the strongest class wins either way round
		`SELECT l_tax FROM lineitem WHERE l_quantity > 3 AND l_quantity = 4 AND l_discount = 1 AND l_discount < 9 AND l_tax LIKE 'a' AND l_tax IN (1)`,
		`SELECT l_tax FROM lineitem WHERE l_quantity <> 3 AND l_quantity IN (1, 2) AND l_quantity LIKE 'q' AND l_shipdate BETWEEN 1 AND 9`,
		// class names that sort differently from their columns
		`SELECT a FROM t WHERE a > 1 AND a_b = 2 AND ain = 3 AND x IN (1) AND xi LIKE 'q' AND b <> 1 AND b_ = 2`,
		// a column in S, N, O and A at once, and repeated order columns
		`SELECT l_quantity, SUM(l_tax + l_quantity) FROM lineitem WHERE l_quantity = 1 AND l_tax > l_quantity GROUP BY l_quantity, l_tax ORDER BY l_tax, l_tax DESC`,
		`SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag, l_linestatus, l_returnflag`,
		`SELECT TOP(3) 1 FROM region`,
		// updates, deletes, inserts
		`UPDATE orders SET o_totalprice = o_totalprice * 1.1 + o_shippriority, o_comment = 'x' WHERE o_orderkey = 3 OR o_custkey = 4`,
		`UPDATE TOP(2) lineitem SET l_tax = 0`,
		`DELETE FROM lineitem`,
		`DELETE FROM lineitem WHERE l_orderkey > 4 AND l_partkey = l_suppkey`,
		`INSERT INTO nation VALUES (1, 'x', 2, 'y'), (3, 'z', 4, 'w')`,
		`CREATE VIEW v AS SELECT a FROM t`,
	)
	for _, text := range texts {
		stmt, err := sqlx.Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		stmts = append(stmts, stmt)
	}
	for _, stmt := range stmts {
		if got, want := SignatureOf(stmt), refSignatureOf(stmt); got != want {
			t.Errorf("%s\n got  %s\n want %s", stmt.SQL(), got, want)
		}
	}
}

// refSignatureOf is the map-based signature builder SignatureOf replaced,
// kept unchanged but for its names as the reference
// TestSignatureMatchesReference and FuzzWindowObserve compare with.
func refSignatureOf(stmt sqlx.Statement) string {
	switch s := stmt.(type) {
	case *sqlx.SelectStmt:
		return refSelectSignature(s)
	case *sqlx.UpdateStmt:
		return refUpdateSignature(s)
	case *sqlx.DeleteStmt:
		b := newRefSigBuilder("del")
		b.bind(s.Table)
		b.classifyWhere(s.Where)
		return b.String()
	case *sqlx.InsertStmt:
		b := newRefSigBuilder("ins")
		b.bind(s.Table)
		b.touch(s.Table.Binding())
		return b.String()
	default:
		return "unknown"
	}
}

// refSigTable accumulates the per-table column classes before rendering.
type refSigTable struct {
	s map[string]string // column -> operator class ("=", "~", "like", "in")
	n map[string]bool   // non-sargable / join columns
	o []string          // ordered: order-by then group-by columns
	a map[string]bool   // additional referenced columns
}

type refSigBuilder struct {
	kind     string
	bindings map[string]string // alias -> table name
	single   string            // sole binding, for unqualified columns
	tables   map[string]*refSigTable
}

func newRefSigBuilder(kind string) *refSigBuilder {
	return &refSigBuilder{kind: kind, bindings: map[string]string{}, tables: map[string]*refSigTable{}}
}

func (b *refSigBuilder) bind(refs ...sqlx.TableRef) {
	for _, r := range refs {
		b.bindings[r.Binding()] = r.Name
	}
	if len(b.bindings) == 1 {
		for k := range b.bindings {
			b.single = k
		}
	} else {
		b.single = ""
	}
}

// table resolves a column's binding to its refSigTable, creating it on demand.
// Unqualified columns resolve to the sole table when there is one;
// otherwise they share a "?" bucket — static extraction has no catalog to
// attribute them with, and a stable bucket keeps the signature canonical.
func (b *refSigBuilder) table(binding string) *refSigTable {
	if binding == "" {
		binding = b.single
	}
	name, ok := b.bindings[binding]
	if !ok {
		name = binding // unresolvable alias: keep it, the signature stays stable
		if name == "" {
			name = "?"
		}
	}
	t := b.tables[name]
	if t == nil {
		t = &refSigTable{s: map[string]string{}, n: map[string]bool{}, a: map[string]bool{}}
		b.tables[name] = t
	}
	return t
}

// touch ensures a table appears in the signature even with no columns.
func (b *refSigBuilder) touch(binding string) { b.table(binding) }

func (b *refSigBuilder) sarg(col sqlx.ColRef, class string) {
	t := b.table(col.Table)
	// Equality dominates range dominates the rest when a column appears in
	// several conjuncts, matching how the request builder merges conditions.
	if prev, ok := t.s[col.Column]; ok && refSargRank(prev) >= refSargRank(class) {
		return
	}
	t.s[col.Column] = class
}

func refSargRank(class string) int {
	switch class {
	case "=":
		return 3
	case "~":
		return 2
	default:
		return 1
	}
}

func (b *refSigBuilder) nonSarg(cols []sqlx.ColRef) {
	for _, c := range cols {
		b.table(c.Table).n[c.Column] = true
	}
}

func (b *refSigBuilder) order(col sqlx.ColRef, desc bool) {
	t := b.table(col.Table)
	entry := col.Column
	if desc {
		entry += "-"
	}
	t.o = append(t.o, entry)
}

func (b *refSigBuilder) additional(cols []sqlx.ColRef) {
	for _, c := range cols {
		b.table(c.Table).a[c.Column] = true
	}
}

// classifyWhere splits the predicate into conjuncts and classifies each the
// way the request builder does: single-column comparisons against
// column-free expressions are sargable (S); everything else — join
// predicates, arithmetic over columns, OR trees — contributes its columns
// to the non-sargable set (N).
func (b *refSigBuilder) classifyWhere(where sqlx.Expr) {
	for _, conj := range sqlx.Conjuncts(where) {
		switch e := conj.(type) {
		case *sqlx.CmpExpr:
			if col, ok := e.L.(sqlx.ColRef); ok && len(e.R.Columns(nil)) == 0 {
				b.sarg(col, refCmpClass(e.Op))
				continue
			}
			if col, ok := e.R.(sqlx.ColRef); ok && len(e.L.Columns(nil)) == 0 {
				b.sarg(col, refCmpClass(e.Op.Flip()))
				continue
			}
			b.nonSarg(conj.Columns(nil))
		case *sqlx.LikeExpr:
			if e.Negated {
				b.nonSarg(conj.Columns(nil))
				continue
			}
			b.sarg(e.Col, "like")
		case *sqlx.InExpr:
			b.sarg(e.Col, "in")
		default:
			b.nonSarg(conj.Columns(nil))
		}
	}
}

func refCmpClass(op sqlx.CmpOp) string {
	switch op {
	case sqlx.CmpEQ:
		return "="
	case sqlx.CmpLT, sqlx.CmpLE, sqlx.CmpGT, sqlx.CmpGE:
		return "~"
	default:
		return "?"
	}
}

func refSelectSignature(s *sqlx.SelectStmt) string {
	b := newRefSigBuilder("sel")
	b.bind(s.From...)
	for _, ref := range s.From {
		b.touch(ref.Binding())
	}
	b.classifyWhere(s.Where)
	if len(s.OrderBy) > 0 {
		for _, o := range s.OrderBy {
			b.order(o.Col, o.Desc)
		}
	} else {
		// No explicit order: a GROUP BY still induces an interesting order
		// the optimizer can satisfy with an index, so it fills O.
		for _, g := range s.GroupBy {
			b.order(g, false)
		}
	}
	for _, g := range s.GroupBy {
		b.additional([]sqlx.ColRef{g})
	}
	for _, item := range s.Items {
		if item.Expr != nil {
			b.additional(item.Expr.Columns(nil))
		}
	}
	return b.String()
}

func refUpdateSignature(u *sqlx.UpdateStmt) string {
	b := newRefSigBuilder("upd")
	b.bind(u.Table)
	b.touch(u.Table.Binding())
	b.classifyWhere(u.Where)
	for _, set := range u.Sets {
		b.additional([]sqlx.ColRef{{Column: set.Column}})
		b.additional(set.Value.Columns(nil))
	}
	return b.String()
}

// String renders the canonical form: kind, then each table sorted by name
// with its S/N/O/A classes; within S, N, and A the columns sort; O keeps
// clause order. Columns already captured by a stronger class are dropped
// from the weaker ones so reformatted statements converge.
func (b *refSigBuilder) String() string {
	names := make([]string, 0, len(b.tables))
	for name := range b.tables {
		names = append(names, name)
	}
	sort.Strings(names)

	var sb strings.Builder
	sb.WriteString(b.kind)
	for _, name := range names {
		t := b.tables[name]
		sb.WriteByte(' ')
		sb.WriteString(name)
		sb.WriteByte('{')
		first := true
		part := func(tag, body string) {
			if body == "" {
				return
			}
			if !first {
				sb.WriteByte(';')
			}
			first = false
			sb.WriteString(tag)
			sb.WriteByte(':')
			sb.WriteString(body)
		}
		part("S", refRenderSarg(t.s))
		part("N", refRenderSet(t.n, t.s, nil))
		part("O", strings.Join(t.o, ","))
		inOrder := map[string]bool{}
		for _, o := range t.o {
			inOrder[strings.TrimSuffix(o, "-")] = true
		}
		part("A", refRenderSet(t.a, t.s, func(col string) bool { return t.n[col] || inOrder[col] }))
		sb.WriteByte('}')
	}
	return sb.String()
}

func refRenderSarg(s map[string]string) string {
	cols := make([]string, 0, len(s))
	for col, class := range s {
		cols = append(cols, col+class)
	}
	sort.Strings(cols)
	return strings.Join(cols, ",")
}

// refRenderSet renders a column set, skipping columns already in the sargable
// set or matched by the extra filter.
func refRenderSet(set map[string]bool, sarg map[string]string, skip func(string) bool) string {
	cols := make([]string, 0, len(set))
	for col := range set {
		if _, ok := sarg[col]; ok {
			continue
		}
		if skip != nil && skip(col) {
			continue
		}
		cols = append(cols, col)
	}
	sort.Strings(cols)
	return strings.Join(cols, ",")
}

// tpchShaped is a TPC-H Q5-shaped statement, a six-table join with range
// and equality conjuncts, an aggregate, GROUP BY and ORDER BY.
const tpchShaped = `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
	FROM customer, orders, lineitem, supplier, nation, region
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
	  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	  AND r_name = 'ASIA' AND o_orderdate >= 8766 AND o_orderdate < 9131
	GROUP BY n_name ORDER BY n_name DESC`

// sinkSig keeps the benchmarked call from being optimized away.
var sinkSig string

// BenchmarkSignature times the (S,N,O,A) signature of one TPC-H-shaped
// statement.
func BenchmarkSignature(b *testing.B) {
	stmt, err := sqlx.Parse(tpchShaped)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSig = SignatureOf(stmt)
	}
}

// A new statement costs one lex and parse, one render and one signature.
// On a TPC-H-shaped statement the parse allocates its AST (50), the
// render only its string, and the signature its column scratch as it
// grows and its string (3): its builder comes from a pool.
func TestParseRenderSignatureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	stmt, err := sqlx.Parse(tpchShaped)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"parse", 50, func() { _, _ = sqlx.Parse(tpchShaped) }},
		{"render", 1, func() { _ = stmt.SQL() }},
		{"signature", 3, func() { _ = SignatureOf(stmt) }},
	} {
		if allocs := testing.AllocsPerRun(200, tc.run); allocs > tc.max {
			t.Errorf("%s: %v allocs/run, want at most %v", tc.name, allocs, tc.max)
		}
	}
}

// parseBytesCeiling is the most a parse of tpchShaped may allocate: 2,432
// bytes, what it measured once the parser read the lexer a token at a
// time, plus 5 %. While Parse lexed the whole text into a token slice
// first, it allocated 5,888 bytes, 3,456 of them the slice.
const parseBytesCeiling = 2_432 * 105 / 100

// TestParseAllocBytes pins the bytes one parse of a TPC-H-shaped
// statement allocates: its AST, and no token slice.
func TestParseAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 200
	least := uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			_, _ = sqlx.Parse(tpchShaped)
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / n; least == 0 || b < least {
			least = b
		}
	}
	t.Logf("parse of tpchShaped: %d bytes (ceiling %d)", least, parseBytesCeiling)
	if least > parseBytesCeiling {
		t.Errorf("parse of tpchShaped allocates %d bytes, ceiling %d", least, parseBytesCeiling)
	}
}
