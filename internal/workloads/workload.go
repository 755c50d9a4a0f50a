// Package workloads defines the workload model consumed by the tuners and
// provides the experiment workloads: a 22-query TPC-H-style batch, random
// SPJG workload generation over any catalog database, and update-mix
// generation (the paper's dbgen-style UPDATE workloads).
package workloads

import (
	"fmt"
	"strings"

	"repro/internal/sqlx"
)

// Query is one workload statement with an execution weight (frequency).
type Query struct {
	ID  string
	SQL string
	// Stmt is the parsed statement when the workload was built from parsed
	// statements (Parse, FromStatements, Generate, Compress). A window
	// snapshot keeps text only and leaves it nil; Statement parses on
	// demand.
	Stmt sqlx.Statement
	// Sig caches the statement's canonical signature when its producer
	// already computed it (a window snapshot does); empty means unknown.
	Sig    string
	Weight float64

	// text and kind stand in for a nil Stmt: the raw text Statement
	// parses, whose canonical rendering is SQL, and the statement's kind.
	text string
	kind sqlx.StmtKind
}

// Statement returns the parsed statement: Stmt when the producer kept it,
// otherwise a fresh parse of the text on every call, so a Query is safe to
// read from several goroutines.
func (q *Query) Statement() (sqlx.Statement, error) {
	if q.Stmt != nil {
		return q.Stmt, nil
	}
	return sqlx.Parse(q.text)
}

// IsUpdate reports whether the statement modifies data.
func (q *Query) IsUpdate() bool {
	if q.Stmt != nil {
		return q.Stmt.Kind() != sqlx.StmtSelect
	}
	return q.kind != sqlx.StmtSelect
}

// Signature returns the statement's canonical signature, computing it only
// when Sig is empty ("" when the statement does not parse).
func (q *Query) Signature() string {
	if q.Sig != "" {
		return q.Sig
	}
	stmt, err := q.Statement()
	if err != nil {
		return ""
	}
	return SignatureOf(stmt)
}

// Workload is a weighted set of statements over one database.
type Workload struct {
	Name     string
	Database string
	Queries  []*Query
}

// NumUpdates returns how many statements modify data.
func (w *Workload) NumUpdates() int {
	n := 0
	for _, q := range w.Queries {
		if q.IsUpdate() {
			n++
		}
	}
	return n
}

// HasUpdates reports whether any statement modifies data.
func (w *Workload) HasUpdates() bool { return w.NumUpdates() > 0 }

// Parse builds a workload from a semicolon-separated SQL script. Weights
// default to 1.
func Parse(name, database, script string) (*Workload, error) {
	stmts, err := sqlx.ParseScript(script)
	if err != nil {
		return nil, fmt.Errorf("workloads: parsing %s: %w", name, err)
	}
	w := &Workload{Name: name, Database: database}
	for i, s := range stmts {
		w.Queries = append(w.Queries, &Query{
			ID:     fmt.Sprintf("%s-q%d", name, i+1),
			SQL:    s.SQL(),
			Stmt:   s,
			Weight: 1,
		})
	}
	return w, nil
}

// FromStatements builds a workload from SQL strings, one statement each.
func FromStatements(name, database string, sqls []string) (*Workload, error) {
	w := &Workload{Name: name, Database: database}
	for i, src := range sqls {
		stmt, err := sqlx.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s statement %d: %w\n%s", name, i+1, err, src)
		}
		w.Queries = append(w.Queries, &Query{
			ID:     fmt.Sprintf("%s-q%d", name, i+1),
			SQL:    stmt.SQL(),
			Stmt:   stmt,
			Weight: 1,
		})
	}
	return w, nil
}

// Compress merges statements with identical SQL into one weighted entry
// (the classical workload-compression step advisors run before tuning:
// production traces repeat the same statements with different literals;
// after parameter normalization they collapse into weights).
func Compress(w *Workload) *Workload {
	out := &Workload{Name: w.Name + "-compressed", Database: w.Database}
	index := map[string]*Query{}
	for _, q := range w.Queries {
		if prev, ok := index[q.SQL]; ok {
			prev.Weight += q.Weight
			continue
		}
		c := *q
		nq := &c
		index[q.SQL] = nq
		out.Queries = append(out.Queries, nq)
	}
	return out
}

// TotalWeight sums the statement weights.
func (w *Workload) TotalWeight() float64 {
	total := 0.0
	for _, q := range w.Queries {
		total += q.Weight
	}
	return total
}

// String summarizes the workload.
func (w *Workload) String() string {
	return fmt.Sprintf("%s: %d queries (%d updates) on %s", w.Name, len(w.Queries), w.NumUpdates(), w.Database)
}

// Describe renders a multi-line listing.
func (w *Workload) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload %s over %s (%d statements)\n", w.Name, w.Database, len(w.Queries))
	for _, q := range w.Queries {
		fmt.Fprintf(&sb, "  %-12s w=%.1f  %s\n", q.ID, q.Weight, q.SQL)
	}
	return sb.String()
}
