package sqlx

import (
	"fmt"
	"strings"
)

// CreateIndexStmt is CREATE [CLUSTERED] INDEX name ON table (keys...)
// [INCLUDE (suffix...)]. It lets users describe what-if configurations in
// plain SQL scripts.
type CreateIndexStmt struct {
	Name      string
	Table     string
	Keys      []string
	Include   []string
	Clustered bool
}

// Kind implements Statement (DDL reuses the select kind space loosely; a
// dedicated kind keeps switches explicit).
func (c *CreateIndexStmt) Kind() StmtKind { return StmtCreateIndex }

// SQL implements Statement.
func (c *CreateIndexStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if c.Clustered {
		sb.WriteString("CLUSTERED ")
	}
	sb.WriteString("INDEX ")
	sb.WriteString(c.Name)
	sb.WriteString(" ON ")
	sb.WriteString(c.Table)
	sb.WriteString(" (")
	sb.WriteString(strings.Join(c.Keys, ", "))
	sb.WriteString(")")
	if len(c.Include) > 0 {
		sb.WriteString(" INCLUDE (")
		sb.WriteString(strings.Join(c.Include, ", "))
		sb.WriteString(")")
	}
	return sb.String()
}

// CreateViewStmt is CREATE VIEW name AS SELECT ... — the view definition
// must be a single-block SPJG query (the paper's view language).
type CreateViewStmt struct {
	Name   string
	Select *SelectStmt
}

// Kind implements Statement.
func (c *CreateViewStmt) Kind() StmtKind { return StmtCreateView }

// SQL implements Statement.
func (c *CreateViewStmt) SQL() string {
	return "CREATE VIEW " + c.Name + " AS " + c.Select.SQL()
}

// DDL statement kinds.
const (
	StmtCreateIndex StmtKind = iota + 100
	StmtCreateView
)

// parseCreate parses CREATE INDEX / CREATE VIEW statements.
func (p *Parser) parseCreate() (Statement, error) {
	p.expectKeyword("CREATE")
	clustered := p.acceptKeyword("CLUSTERED")
	switch {
	case p.acceptKeyword("INDEX"):
		name := p.peek()
		if name.Kind != TokIdent {
			return nil, fmt.Errorf("sqlx: expected index name, got %s", name)
		}
		p.next()
		if err := p.expectKeywordErr("ON"); err != nil {
			return nil, err
		}
		table := p.peek()
		if table.Kind != TokIdent {
			return nil, fmt.Errorf("sqlx: expected table name, got %s", table)
		}
		p.next()
		keys, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		stmt := &CreateIndexStmt{Name: name.Text, Table: table.Text, Keys: keys, Clustered: clustered}
		if p.acceptKeyword("INCLUDE") {
			inc, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			stmt.Include = inc
		}
		return stmt, nil
	case p.acceptKeyword("VIEW"):
		if clustered {
			return nil, fmt.Errorf("sqlx: CLUSTERED applies to indexes, not views")
		}
		name := p.peek()
		if name.Kind != TokIdent {
			return nil, fmt.Errorf("sqlx: expected view name, got %s", name)
		}
		p.next()
		if err := p.expectKeywordErr("AS"); err != nil {
			return nil, err
		}
		// parseSelect assumes its SELECT, as parseStatement checks it.
		if !p.peekKeyword("SELECT") {
			return nil, fmt.Errorf("sqlx: expected SELECT, got %s", p.peek())
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateViewStmt{Name: name.Text, Select: sel}, nil
	default:
		return nil, fmt.Errorf("sqlx: expected INDEX or VIEW after CREATE, got %s", p.peek())
	}
}

// parseIdentList parses a parenthesized comma-separated identifier list.
func (p *Parser) parseIdentList() ([]string, error) {
	if err := p.expectSymbolErr("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		t := p.peek()
		if t.Kind != TokIdent {
			return nil, fmt.Errorf("sqlx: expected identifier, got %s", t)
		}
		p.next()
		out = append(out, t.Text)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if err := p.expectSymbolErr(")"); err != nil {
		return nil, err
	}
	return out, nil
}
