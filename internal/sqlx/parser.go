package sqlx

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser parses the SQL subset into statements.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a single statement from src. Trailing semicolons are allowed.
func Parse(src string) (Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlx: unexpected trailing input near %s", p.peek())
	}
	return stmt, nil
}

// ParseSelect parses src and requires it to be a SELECT statement.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlx: expected SELECT statement, got %T", stmt)
	}
	return sel, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	var out []Statement
	for !p.atEOF() {
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if !p.accept(TokSymbol, ";") && !p.atEOF() {
			return nil, fmt.Errorf("sqlx: expected ';' between statements, got %s", p.peek())
		}
	}
	return out, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKeyword("SELECT"):
		return p.parseSelect()
	case p.peekKeyword("UPDATE"):
		return p.parseUpdate()
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("DELETE"):
		return p.parseDelete()
	case p.peekKeyword("CREATE"):
		return p.parseCreate()
	default:
		return nil, fmt.Errorf("sqlx: expected statement, got %s", p.peek())
	}
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	p.expectKeyword("SELECT")
	sel := &SelectStmt{}
	if p.acceptKeyword("TOP") {
		n, err := p.parseParenInt()
		if err != nil {
			return nil, err
		}
		sel.Top = n
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if err := p.expectKeywordErr("FROM"); err != nil {
		return nil, err
	}
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, tr)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeywordErr("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, c)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeywordErr("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Col: c}
			if p.acceptKeyword("DESC") {
				it.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, it)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	for agg, name := range map[AggFunc]string{
		AggSum: "SUM", AggCount: "COUNT", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
	} {
		if p.peekKeyword(name) {
			p.next()
			if err := p.expectSymbolErr("("); err != nil {
				return SelectItem{}, err
			}
			var inner Expr
			if p.accept(TokSymbol, "*") {
				if agg != AggCount {
					return SelectItem{}, fmt.Errorf("sqlx: %s(*) is not supported", name)
				}
			} else {
				e, err := p.parseArith()
				if err != nil {
					return SelectItem{}, err
				}
				inner = e
			}
			if err := p.expectSymbolErr(")"); err != nil {
				return SelectItem{}, err
			}
			alias, err := p.parseOptionalAlias()
			return SelectItem{Agg: agg, Expr: inner, Alias: alias}, err
		}
	}
	e, err := p.parseArith()
	if err != nil {
		return SelectItem{}, err
	}
	alias, err := p.parseOptionalAlias()
	return SelectItem{Expr: e, Alias: alias}, err
}

// parseOptionalAlias parses "AS name", a bare name, or nothing; AS must be
// followed by a name.
func (p *Parser) parseOptionalAlias() (string, error) {
	if p.acceptKeyword("AS") {
		a := p.peek()
		if a.Kind != TokIdent {
			return "", fmt.Errorf("sqlx: expected alias after AS, got %s", a)
		}
		p.next()
		return a.Text, nil
	}
	if a := p.peek(); a.Kind == TokIdent {
		p.next()
		return a.Text, nil
	}
	return "", nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return TableRef{}, fmt.Errorf("sqlx: expected table name, got %s", t)
	}
	p.next()
	alias, err := p.parseOptionalAlias()
	if err != nil {
		return TableRef{}, err
	}
	return TableRef{Name: t.Text, Alias: alias}, nil
}

func (p *Parser) parseUpdate() (*UpdateStmt, error) {
	p.expectKeyword("UPDATE")
	u := &UpdateStmt{}
	if p.acceptKeyword("TOP") {
		n, err := p.parseParenInt()
		if err != nil {
			return nil, err
		}
		u.Top = n
	}
	tr, err := p.parseTableRefNoAlias()
	if err != nil {
		return nil, err
	}
	u.Table = tr
	if err := p.expectKeywordErr("SET"); err != nil {
		return nil, err
	}
	for {
		col := p.peek()
		if col.Kind != TokIdent {
			return nil, fmt.Errorf("sqlx: expected column in SET clause, got %s", col)
		}
		p.next()
		if err := p.expectSymbolErr("="); err != nil {
			return nil, err
		}
		val, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		u.Sets = append(u.Sets, SetClause{Column: col.Text, Value: val})
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		u.Where = e
	}
	return u, nil
}

func (p *Parser) parseInsert() (*InsertStmt, error) {
	p.expectKeyword("INSERT")
	if err := p.expectKeywordErr("INTO"); err != nil {
		return nil, err
	}
	tr, err := p.parseTableRefNoAlias()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: tr}
	if err := p.expectKeywordErr("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbolErr("("); err != nil {
			return nil, err
		}
		depth := 1
		for depth > 0 {
			t := p.peek()
			if t.Kind == TokEOF {
				return nil, fmt.Errorf("sqlx: unterminated VALUES tuple")
			}
			p.next()
			if t.Kind == TokSymbol && t.Text == "(" {
				depth++
			}
			if t.Kind == TokSymbol && t.Text == ")" {
				depth--
			}
		}
		ins.Rows++
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseDelete() (*DeleteStmt, error) {
	p.expectKeyword("DELETE")
	if err := p.expectKeywordErr("FROM"); err != nil {
		return nil, err
	}
	tr, err := p.parseTableRefNoAlias()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: tr}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}

func (p *Parser) parseTableRefNoAlias() (TableRef, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return TableRef{}, fmt.Errorf("sqlx: expected table name, got %s", t)
	}
	p.next()
	return TableRef{Name: t.Text}, nil
}

// --- predicate grammar: OR > AND > NOT > comparison ---

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BoolExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BoolExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &BoolExpr{Op: "NOT", L: inner}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (Expr, error) {
	if p.accept(TokSymbol, "(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbolErr(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	l, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	// BETWEEN / IN / LIKE apply only to a bare column reference.
	if col, ok := l.(ColRef); ok {
		if p.acceptKeyword("NOT") {
			switch {
			case p.acceptKeyword("LIKE"):
				pat := p.peek()
				if pat.Kind != TokString {
					return nil, fmt.Errorf("sqlx: expected string pattern after NOT LIKE, got %s", pat)
				}
				p.next()
				return &LikeExpr{Col: col, Pattern: pat.Text, Negated: true}, nil
			case p.acceptKeyword("IN"):
				inner, err := p.parseInList(col)
				if err != nil {
					return nil, err
				}
				return &BoolExpr{Op: "NOT", L: inner}, nil
			default:
				return nil, fmt.Errorf("sqlx: expected LIKE or IN after NOT, got %s", p.peek())
			}
		}
		if p.acceptKeyword("BETWEEN") {
			lo, err := p.parseArith()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeywordErr("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseArith()
			if err != nil {
				return nil, err
			}
			return And(&CmpExpr{Op: CmpGE, L: col, R: lo}, &CmpExpr{Op: CmpLE, L: col, R: hi}), nil
		}
		if p.acceptKeyword("IN") {
			return p.parseInList(col)
		}
		if p.acceptKeyword("LIKE") {
			pat := p.peek()
			if pat.Kind != TokString {
				return nil, fmt.Errorf("sqlx: expected string pattern after LIKE, got %s", pat)
			}
			p.next()
			return &LikeExpr{Col: col, Pattern: pat.Text}, nil
		}
	}
	op, ok := p.parseCmpOp()
	if !ok {
		return nil, fmt.Errorf("sqlx: expected comparison operator, got %s", p.peek())
	}
	r, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	return &CmpExpr{Op: op, L: l, R: r}, nil
}

func (p *Parser) parseInList(col ColRef) (Expr, error) {
	if err := p.expectSymbolErr("("); err != nil {
		return nil, err
	}
	var vals []Const
	for {
		c, err := p.parseConst()
		if err != nil {
			return nil, err
		}
		vals = append(vals, c)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if err := p.expectSymbolErr(")"); err != nil {
		return nil, err
	}
	return &InExpr{Col: col, Values: vals}, nil
}

func (p *Parser) parseCmpOp() (CmpOp, bool) {
	t := p.peek()
	if t.Kind != TokSymbol {
		return 0, false
	}
	ops := map[string]CmpOp{
		"=": CmpEQ, "<>": CmpNE, "<": CmpLT, "<=": CmpLE, ">": CmpGT, ">=": CmpGE,
	}
	op, ok := ops[t.Text]
	if ok {
		p.next()
	}
	return op, ok
}

// parseArith parses additive expressions over multiplicative terms.
func (p *Parser) parseArith() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "+" && t.Text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.Text, L: l, R: r}
	}
}

func (p *Parser) parseTerm() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return l, nil
		}
		p.next()
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.Text, L: l, R: r}
	}
}

func (p *Parser) parseFactor() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokSymbol && t.Text == "(":
		p.next()
		e, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbolErr(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokSymbol && t.Text == "-":
		p.next()
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		if c, ok := inner.(Const); ok && c.Kind == ConstNumber {
			c.Num = -c.Num
			return c, nil
		}
		return &BinExpr{Op: "-", L: Number(0), R: inner}, nil
	case t.Kind == TokNumber, t.Kind == TokString:
		return p.parseConstExpr()
	case t.Kind == TokIdent:
		return p.parseColRefExpr()
	default:
		return nil, fmt.Errorf("sqlx: expected expression, got %s", t)
	}
}

func (p *Parser) parseConst() (Const, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return Const{}, fmt.Errorf("sqlx: bad number %q: %v", t.Text, err)
		}
		return Number(v), nil
	case TokString:
		p.next()
		return Str(t.Text), nil
	default:
		return Const{}, fmt.Errorf("sqlx: expected constant, got %s", t)
	}
}

func (p *Parser) parseConstExpr() (Expr, error) {
	c, err := p.parseConst()
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseColRef() (ColRef, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return ColRef{}, fmt.Errorf("sqlx: expected column reference, got %s", t)
	}
	p.next()
	if p.accept(TokSymbol, ".") {
		c := p.peek()
		if c.Kind != TokIdent {
			return ColRef{}, fmt.Errorf("sqlx: expected column after '.', got %s", c)
		}
		p.next()
		return ColRef{Table: t.Text, Column: c.Text}, nil
	}
	return ColRef{Column: t.Text}, nil
}

func (p *Parser) parseColRefExpr() (Expr, error) {
	c, err := p.parseColRef()
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseParenInt() (int, error) {
	if err := p.expectSymbolErr("("); err != nil {
		return 0, err
	}
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, fmt.Errorf("sqlx: expected integer, got %s", t)
	}
	p.next()
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, fmt.Errorf("sqlx: bad integer %q", t.Text)
	}
	if err := p.expectSymbolErr(")"); err != nil {
		return 0, err
	}
	return n, nil
}

// --- token helpers ---

func (p *Parser) peek() Token {
	if p.pos >= len(p.toks) {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos]
}

func (p *Parser) next() Token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) {
	if !p.acceptKeyword(kw) {
		panic(fmt.Sprintf("sqlx: internal error: expected keyword %s", kw))
	}
}

func (p *Parser) expectKeywordErr(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlx: expected %s, got %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) accept(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && strings.EqualFold(t.Text, text) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectSymbolErr(sym string) error {
	if !p.accept(TokSymbol, sym) {
		return fmt.Errorf("sqlx: expected %q, got %s", sym, p.peek())
	}
	return nil
}
