package workloads

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/sqlx"
)

// SignatureOf extracts a canonical signature for a statement, mirroring the
// (S,N,O,A) shape of the index requests the instrumented optimizer emits
// (§2): per referenced table, the sargable predicate columns with their
// operator class (S), the columns of non-sargable or join conjuncts (N),
// the required output order (O, from ORDER BY then GROUP BY), and the
// additional referenced columns (A). Literal values never enter the
// signature, so parameterized variants of one statement share it — the
// compression key CoPhy-style workload summaries cluster on.
//
// The extraction is static (AST only, no optimizer round trip) so the
// sliding window can compute it once per distinct statement at ingest.
func SignatureOf(stmt sqlx.Statement) string {
	b := sigBuilders.Get().(*sigBuilder)
	defer b.release()
	b.bindings, b.tables, b.cols = b.bindingBuf[:0], b.tableBuf[:0], b.colBuf[:0]
	switch s := stmt.(type) {
	case *sqlx.SelectStmt:
		b.start("sel", s.From...)
		for _, ref := range s.From {
			b.table(ref.Binding())
		}
		b.classifyWhere(s.Where)
		if len(s.OrderBy) > 0 {
			for _, o := range s.OrderBy {
				b.order(o.Col, o.Desc)
			}
		} else {
			// No explicit order: a GROUP BY still induces an interesting
			// order the optimizer can satisfy with an index, so it fills O.
			for _, g := range s.GroupBy {
				b.order(g, false)
			}
		}
		for _, g := range s.GroupBy {
			b.add(g, 'A')
		}
		for _, item := range s.Items {
			if item.Expr != nil {
				b.addColumns(item.Expr, 'A')
			}
		}
	case *sqlx.UpdateStmt:
		b.start("upd", s.Table)
		b.table(s.Table.Binding())
		b.classifyWhere(s.Where)
		for _, set := range s.Sets {
			b.add(sqlx.ColRef{Column: set.Column}, 'A')
			b.addColumns(set.Value, 'A')
		}
	case *sqlx.DeleteStmt:
		b.start("del", s.Table)
		b.classifyWhere(s.Where)
	case *sqlx.InsertStmt:
		b.start("ins", s.Table)
		b.table(s.Table.Binding())
	default:
		return "unknown"
	}
	return b.render()
}

// sigBinding maps a FROM binding, an alias or a table name, to its table.
type sigBinding struct{ binding, table string }

// sigCol is one column the signature records for one table: in class S
// with its operator class as op ("=", "~", "like", "in" or "?"), in N, in
// O with op "-" when descending, or in A.
type sigCol struct {
	table  string
	class  byte // 'S', 'N', 'O' or 'A'
	column string
	op     string
}

// sigBuilder accumulates a statement's tables and column classes in small
// slices: a statement names a handful of each, so a linear scan dedupes
// them faster than a map is built. The slices start in the builder's own
// arrays, so a statement that fits them allocates no scratch. A builder
// points into itself, so it would escape, 3 KB of garbage per statement;
// sigBuilders recycles them instead.
type sigBuilder struct {
	kind     string
	bindings []sigBinding
	single   string   // sole binding, for unqualified columns
	tables   []string // distinct table names
	cols     []sigCol
	refs     []sqlx.ColRef // scratch for Expr.Columns

	bindingBuf [8]sigBinding
	tableBuf   [8]string
	colBuf     [32]sigCol
}

var sigBuilders = sync.Pool{New: func() any { return new(sigBuilder) }}

// release zeroes b, so the pool pins no statement's strings, and returns
// it to the pool.
func (b *sigBuilder) release() {
	*b = sigBuilder{}
	sigBuilders.Put(b)
}

// start sets the statement kind and binds its FROM tables.
func (b *sigBuilder) start(kind string, refs ...sqlx.TableRef) {
	b.kind = kind
	for _, r := range refs {
		if i := b.bindingOf(r.Binding()); i >= 0 {
			b.bindings[i].table = r.Name
		} else {
			b.bindings = append(b.bindings, sigBinding{r.Binding(), r.Name})
		}
	}
	b.single = ""
	if len(b.bindings) == 1 {
		b.single = b.bindings[0].binding
	}
}

func (b *sigBuilder) bindingOf(binding string) int {
	for i, x := range b.bindings {
		if x.binding == binding {
			return i
		}
	}
	return -1
}

// table resolves a column's binding to its table name, recording the
// table. Unqualified columns resolve to the sole table when there is one;
// otherwise they share a "?" bucket — static extraction has no catalog to
// attribute them with, and a stable bucket keeps the signature canonical.
func (b *sigBuilder) table(binding string) string {
	if binding == "" {
		binding = b.single
	}
	name := binding // unresolvable alias: keep it, the signature stays stable
	if i := b.bindingOf(binding); i >= 0 {
		name = b.bindings[i].table
	} else if name == "" {
		name = "?"
	}
	for _, t := range b.tables {
		if t == name {
			return name
		}
	}
	b.tables = append(b.tables, name)
	return name
}

// find returns the position of table's column in class, or -1.
func (b *sigBuilder) find(table string, class byte, column string) int {
	for i, c := range b.cols {
		if c.class == class && c.column == column && c.table == table {
			return i
		}
	}
	return -1
}

// add records a column in class N or A unless it is there already.
func (b *sigBuilder) add(col sqlx.ColRef, class byte) {
	t := b.table(col.Table)
	if b.find(t, class, col.Column) < 0 {
		b.cols = append(b.cols, sigCol{table: t, class: class, column: col.Column})
	}
}

func (b *sigBuilder) sarg(col sqlx.ColRef, op string) {
	t := b.table(col.Table)
	i := b.find(t, 'S', col.Column)
	switch {
	case i < 0:
		b.cols = append(b.cols, sigCol{table: t, class: 'S', column: col.Column, op: op})
	// Equality dominates range dominates the rest when a column appears in
	// several conjuncts, matching how the request builder merges
	// conditions.
	case sargRank(b.cols[i].op) < sargRank(op):
		b.cols[i].op = op
	}
}

func sargRank(op string) int {
	switch op {
	case "=":
		return 3
	case "~":
		return 2
	default:
		return 1
	}
}

// addColumns records the columns of e in class N or A.
func (b *sigBuilder) addColumns(e sqlx.Expr, class byte) {
	b.refs = e.Columns(b.refs[:0])
	for _, c := range b.refs {
		b.add(c, class)
	}
}

func (b *sigBuilder) order(col sqlx.ColRef, desc bool) {
	c := sigCol{table: b.table(col.Table), class: 'O', column: col.Column}
	if desc {
		c.op = "-"
	}
	b.cols = append(b.cols, c)
}

// hasColumns reports whether e references a column.
func (b *sigBuilder) hasColumns(e sqlx.Expr) bool {
	b.refs = e.Columns(b.refs[:0])
	return len(b.refs) > 0
}

// classifyWhere walks the predicate's top-level conjuncts in order and
// classifies each the way the request builder does: single-column
// comparisons against column-free expressions are sargable (S); everything
// else — join predicates, arithmetic over columns, OR trees — contributes
// its columns to the non-sargable set (N).
func (b *sigBuilder) classifyWhere(where sqlx.Expr) {
	switch e := where.(type) {
	case nil:
	case *sqlx.BoolExpr:
		if e.Op == "AND" {
			b.classifyWhere(e.L)
			b.classifyWhere(e.R)
			return
		}
		b.addColumns(e, 'N')
	case *sqlx.CmpExpr:
		if col, ok := e.L.(sqlx.ColRef); ok && !b.hasColumns(e.R) {
			b.sarg(col, cmpClass(e.Op))
			return
		}
		if col, ok := e.R.(sqlx.ColRef); ok && !b.hasColumns(e.L) {
			b.sarg(col, cmpClass(e.Op.Flip()))
			return
		}
		b.addColumns(e, 'N')
	case *sqlx.LikeExpr:
		if e.Negated {
			b.addColumns(e, 'N')
			return
		}
		b.sarg(e.Col, "like")
	case *sqlx.InExpr:
		b.sarg(e.Col, "in")
	default:
		b.addColumns(e, 'N')
	}
}

func cmpClass(op sqlx.CmpOp) string {
	switch op {
	case sqlx.CmpEQ:
		return "="
	case sqlx.CmpLT, sqlx.CmpLE, sqlx.CmpGT, sqlx.CmpGE:
		return "~"
	default:
		return "?"
	}
}

// render writes the canonical form: kind, then each table sorted by name
// with its S/N/O/A classes; within S, N, and A the columns sort (S by
// column and operator class written together); O keeps clause order.
// Columns already captured by a stronger class are dropped from the weaker
// ones so reformatted statements converge.
func (b *sigBuilder) render() string {
	slices.Sort(b.tables)
	// One stable sort groups the columns by table, then class in S, N, O,
	// A order, then sorts each class but O, which keeps clause order.
	slices.SortStableFunc(b.cols, func(x, y sigCol) int {
		if c := strings.Compare(x.table, y.table); c != 0 {
			return c
		}
		if c := classRank(x.class) - classRank(y.class); c != 0 || x.class == 'O' {
			return c
		}
		return compareJoined(x.column, x.op, y.column, y.op)
	})
	var buf [512]byte
	out := append(buf[:0], b.kind...)
	cols := b.cols
	for _, t := range b.tables {
		out = append(append(append(out, ' '), t...), '{')
		n := 0
		for n < len(cols) && cols[n].table == t {
			n++
		}
		out = appendClasses(out, cols[:n])
		cols = cols[n:]
		out = append(out, '}')
	}
	return string(out)
}

func classRank(class byte) int { return strings.IndexByte("SNOA", class) }

// appendClasses appends one table's classes, sorted as render sorts them,
// as "S:a=,b~;N:c;O:d-;A:e": an empty class is left out, N drops the
// columns of S, and A those of S, N and O.
func appendClasses(dst []byte, cols []sigCol) []byte {
	in := func(class byte, column string) bool {
		for _, c := range cols {
			if c.class == class && c.column == column {
				return true
			}
		}
		return false
	}
	var last byte
	for _, c := range cols {
		switch {
		case c.class == 'N' && in('S', c.column):
			continue
		case c.class == 'A' && (in('S', c.column) || in('N', c.column) || in('O', c.column)):
			continue
		}
		switch {
		case c.class == last:
			dst = append(dst, ',')
		case last != 0:
			dst = append(dst, ';')
			fallthrough
		default:
			dst = append(dst, c.class, ':')
			last = c.class
		}
		dst = append(append(dst, c.column...), c.op...)
	}
	return dst
}

// compareJoined compares a1+a2 with b1+b2 without building either.
func compareJoined(a1, a2, b1, b2 string) int {
	at := func(s1, s2 string, i int) byte {
		if i < len(s1) {
			return s1[i]
		}
		return s2[i-len(s1)]
	}
	la, lb := len(a1)+len(a2), len(b1)+len(b2)
	for i := 0; i < la && i < lb; i++ {
		if x, y := at(a1, a2, i), at(b1, b2, i); x != y {
			return int(x) - int(y)
		}
	}
	return la - lb
}
