package sqlx

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// This file keeps the byte-classifying lexer and the fmt-based renderer
// that the single-pass lexer and the append renderer replaced, unchanged
// but for their names, as oracles: FuzzLexRenderMatchesReference checks
// that the replacements produce the same tokens, errors and text. The
// reference lexer reads every byte as a Latin-1 character, so it is an
// oracle for ASCII input only.

var refKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "ASC": true, "DESC": true, "AND": true, "OR": true,
	"NOT": true, "AS": true, "UPDATE": true, "SET": true, "INSERT": true,
	"INTO": true, "VALUES": true, "DELETE": true, "BETWEEN": true, "IN": true,
	"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true,
	"TOP": true, "LIKE": true,
	"CREATE": true, "CLUSTERED": true, "INDEX": true, "ON": true,
	"INCLUDE": true, "VIEW": true,
}

type refLexer struct {
	src string
	pos int
}

func (l *refLexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case refIsIdentStart(rune(c)):
		for l.pos < len(l.src) && refIsIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if refKeywords[strings.ToUpper(text)] {
			return Token{Kind: TokKeyword, Text: strings.ToUpper(text), Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	case c >= '0' && c <= '9':
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			if ch < '0' || ch > '9' {
				break
			}
			l.pos++
		}
		// An exponent, as Const.String writes one for 1e6 and beyond.
		if e := l.pos; e < len(l.src) && (l.src[e] == 'e' || l.src[e] == 'E') {
			e++
			if e < len(l.src) && (l.src[e] == '+' || l.src[e] == '-') {
				e++
			}
			if e < len(l.src) && '0' <= l.src[e] && l.src[e] <= '9' {
				l.pos = e
				for l.pos < len(l.src) && '0' <= l.src[l.pos] && l.src[l.pos] <= '9' {
					l.pos++
				}
			}
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("sqlx: unterminated string literal at offset %d", start)
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				// '' escapes a single quote inside a string literal.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
	default:
		// Multi-character operators first.
		for _, op := range []string{"<=", ">=", "<>", "!="} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += len(op)
				if op == "!=" {
					op = "<>"
				}
				return Token{Kind: TokSymbol, Text: op, Pos: start}, nil
			}
		}
		if strings.ContainsRune("(),.*=<>+-/;%", rune(c)) {
			l.pos++
			return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sqlx: unexpected character %q at offset %d", c, l.pos)
	}
}

func (l *refLexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			// line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			break
		}
		l.pos++
	}
}

func refIsIdentStart(c rune) bool {
	return c == '_' || unicode.IsLetter(c)
}

func refIsIdentPart(c rune) bool {
	return c == '_' || unicode.IsLetter(c) || unicode.IsDigit(c)
}

func refTokenize(src string) ([]Token, error) {
	lx := &refLexer{src: src}
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}

// refString is Expr.String as the reference renderer wrote it, one case
// per expression type.
func refString(e Expr) string {
	switch x := e.(type) {
	case ColRef:
		if x.Table == "" {
			return x.Column
		}
		return x.Table + "." + x.Column
	case Const:
		if x.Kind == ConstString {
			return "'" + strings.ReplaceAll(x.Str, "'", "''") + "'"
		}
		return strconv.FormatFloat(x.Num, 'g', -1, 64)
	case *BinExpr:
		return fmt.Sprintf("%s %s %s", refParenthesize(x.L), x.Op, refParenthesize(x.R))
	case *CmpExpr:
		return fmt.Sprintf("%s %s %s", refParenthesize(x.L), x.Op, refParenthesize(x.R))
	case *LikeExpr:
		not := ""
		if x.Negated {
			not = "NOT "
		}
		return fmt.Sprintf("%s %sLIKE %s", refString(x.Col), not, refString(Str(x.Pattern)))
	case *InExpr:
		parts := make([]string, len(x.Values))
		for i, v := range x.Values {
			parts[i] = refString(v)
		}
		return fmt.Sprintf("%s IN (%s)", refString(x.Col), strings.Join(parts, ", "))
	case *BoolExpr:
		if x.Op == "NOT" {
			return "NOT " + refParenthesize(x.L)
		}
		return fmt.Sprintf("%s %s %s", refParenthesize(x.L), x.Op, refParenthesize(x.R))
	default:
		panic(fmt.Sprintf("refString: unexpected %T", e))
	}
}

func refParenthesize(e Expr) string {
	switch e.(type) {
	case *BoolExpr, *CmpExpr, *BinExpr:
		return "(" + refString(e) + ")"
	default:
		return refString(e)
	}
}

func refPredicateSQL(e Expr) string {
	switch x := e.(type) {
	case *CmpExpr:
		return fmt.Sprintf("%s %s %s", refLeadingOperand(x.L), x.Op, refParenthesize(x.R))
	case *BoolExpr:
		if x.Op == "NOT" {
			return "NOT " + refParenthesizePredicate(x.L)
		}
		return fmt.Sprintf("%s %s %s", refParenthesizePredicate(x.L), x.Op, refParenthesizePredicate(x.R))
	default:
		return refString(e)
	}
}

func refParenthesizePredicate(e Expr) string {
	switch e.(type) {
	case *BoolExpr, *CmpExpr, *BinExpr:
		return "(" + refPredicateSQL(e) + ")"
	default:
		return refString(e)
	}
}

func refLeadingOperand(e Expr) string {
	b, ok := e.(*BinExpr)
	switch {
	case !ok:
		return refString(e)
	case refIsNegation(b):
		return "-" + refParenthesize(b.R)
	}
	if l, ok := b.L.(*BinExpr); ok && refIsAdditive(l) && !refIsAdditive(b) {
		return refParenthesize(l) + " " + b.Op + " " + refParenthesize(b.R)
	}
	return refLeadingOperand(b.L) + " " + b.Op + " " + refParenthesize(b.R)
}

func refIsNegation(b *BinExpr) bool {
	_, constant := b.R.(Const)
	return b.Op == "-" && b.L == Expr(Number(0)) && !constant
}

func refIsAdditive(b *BinExpr) bool {
	return (b.Op == "+" || b.Op == "-") && !refIsNegation(b)
}

func refSelectItem(s SelectItem) string {
	var core string
	if s.Agg != AggNone {
		arg := "*"
		if s.Expr != nil {
			arg = refString(s.Expr)
		}
		core = fmt.Sprintf("%s(%s)", s.Agg, arg)
	} else {
		core = refString(s.Expr)
	}
	if s.Alias != "" {
		core += " AS " + s.Alias
	}
	return core
}

func refTableRef(t TableRef) string {
	if t.Alias != "" && t.Alias != t.Name {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

func refOrderItem(o OrderItem) string {
	if o.Desc {
		return refString(o.Col) + " DESC"
	}
	return refString(o.Col)
}

// refSQL is Statement.SQL as the reference renderer wrote it for the four
// workload statement kinds; DDL keeps its own SQL.
func refSQL(stmt Statement) string {
	switch s := stmt.(type) {
	case *SelectStmt:
		var sb strings.Builder
		sb.WriteString("SELECT ")
		if s.Top > 0 {
			fmt.Fprintf(&sb, "TOP(%d) ", s.Top)
		}
		for i, it := range s.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(refSelectItem(it))
		}
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(refTableRef(t))
		}
		if s.Where != nil {
			sb.WriteString(" WHERE ")
			sb.WriteString(refPredicateSQL(s.Where))
		}
		if len(s.GroupBy) > 0 {
			sb.WriteString(" GROUP BY ")
			for i, c := range s.GroupBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(refString(c))
			}
		}
		if len(s.OrderBy) > 0 {
			sb.WriteString(" ORDER BY ")
			for i, o := range s.OrderBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(refOrderItem(o))
			}
		}
		return sb.String()
	case *UpdateStmt:
		var sb strings.Builder
		sb.WriteString("UPDATE ")
		if s.Top > 0 {
			fmt.Fprintf(&sb, "TOP(%d) ", s.Top)
		}
		sb.WriteString(refTableRef(s.Table))
		sb.WriteString(" SET ")
		for i, set := range s.Sets {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(set.Column)
			sb.WriteString(" = ")
			sb.WriteString(refString(set.Value))
		}
		if s.Where != nil {
			sb.WriteString(" WHERE ")
			sb.WriteString(refPredicateSQL(s.Where))
		}
		return sb.String()
	case *InsertStmt:
		return fmt.Sprintf("INSERT INTO %s VALUES <%d rows>", refTableRef(s.Table), s.Rows)
	case *DeleteStmt:
		out := "DELETE FROM " + refTableRef(s.Table)
		if s.Where != nil {
			out += " WHERE " + refPredicateSQL(s.Where)
		}
		return out
	case *CreateViewStmt:
		return "CREATE VIEW " + s.Name + " AS " + refSQL(s.Select)
	default:
		return stmt.SQL()
	}
}
