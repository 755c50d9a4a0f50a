// Package sqlx implements a lexer, parser, and AST for the SQL subset used
// by the physical design tuner: single-block SPJG SELECT statements (select,
// project, join, group-by) with ORDER BY, plus UPDATE, INSERT, and DELETE.
//
// The subset matches the assumptions in Bruno & Chaudhuri (SIGMOD 2005):
// view definitions and workload queries are single-block SPJ queries with
// optional GROUP BY, whose WHERE predicates split into equi-join predicates,
// range predicates over single columns, and arbitrary "other" predicates.
package sqlx

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind identifies the lexical class of a token.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokKeyword
	TokSymbol // punctuation and operators: ( ) , . * = < > <= >= <> + - / ;
)

// Token is a single lexical token with its position in the input.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int    // byte offset in input
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "ASC": true, "DESC": true, "AND": true, "OR": true,
	"NOT": true, "AS": true, "UPDATE": true, "SET": true, "INSERT": true,
	"INTO": true, "VALUES": true, "DELETE": true, "BETWEEN": true, "IN": true,
	"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true,
	"TOP": true, "LIKE": true,
	"CREATE": true, "CLUSTERED": true, "INDEX": true, "ON": true,
	"INCLUDE": true, "VIEW": true,
}

// Lexer splits an input string into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or a TokEOF token at end of input.
// Lexical errors are returned as error.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if keywords[strings.ToUpper(text)] {
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

func (l *Lexer) skipSpace() {
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

func isIdentStart(c rune) bool {
	return c == '_' || unicode.IsLetter(c)
}

func isIdentPart(c rune) bool {
	return c == '_' || unicode.IsLetter(c) || unicode.IsDigit(c)
}

// Tokenize returns all tokens in src, excluding the trailing EOF token.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
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
