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
	"unicode/utf8"
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

// keywordsByLen lists the keywords, upper-cased, by length: the lexer
// compares a word only with the keywords as long as it, and returns the
// listed text, so a keyword token allocates nothing.
var keywordsByLen [maxKeywordLen + 1][]string

// maxKeywordLen is the length of the longest keyword, CLUSTERED.
const maxKeywordLen = 9

func init() {
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "ASC", "DESC",
		"AND", "OR", "NOT", "AS", "UPDATE", "SET", "INSERT", "INTO", "VALUES",
		"DELETE", "BETWEEN", "IN", "SUM", "COUNT", "AVG", "MIN", "MAX", "TOP",
		"LIKE", "CREATE", "CLUSTERED", "INDEX", "ON", "INCLUDE", "VIEW",
	} {
		keywordsByLen[len(kw)] = append(keywordsByLen[len(kw)], kw)
	}
}

// keyword returns the canonical text of the keyword text spells, matching
// ASCII letters case-insensitively and nothing else.
func keyword(text string) (string, bool) {
	if len(text) > maxKeywordLen {
		return "", false
	}
next:
	for _, kw := range keywordsByLen[len(text)] {
		for i := 0; i < len(text); i++ {
			c := text[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != kw[i] {
				continue next
			}
		}
		return kw, true
	}
	return "", false
}

// Lexer splits an input string into tokens. It reads the input as UTF-8:
// identifiers are Unicode letters, digits and '_', and any Unicode space
// separates tokens. ASCII takes a byte-wise path.
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
	case isASCIILetter(c) || c == '_' || c >= utf8.RuneSelf && unicode.IsLetter(l.runeAt()):
		return l.identifier(), nil
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
		return l.stringLiteral()
	}
	// Two-character operators first; != is spelled <>.
	if l.pos+1 < len(l.src) {
		switch op := l.src[l.pos : l.pos+2]; op {
		case "<=", ">=", "<>", "!=":
			l.pos += 2
			if op == "!=" {
				op = "<>"
			}
			return Token{Kind: TokSymbol, Text: op, Pos: start}, nil
		}
	}
	switch c {
	case '(', ')', ',', '.', '*', '=', '<', '>', '+', '-', '/', ';', '%':
		l.pos++
		return Token{Kind: TokSymbol, Text: l.src[start:l.pos], Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqlx: unexpected character %q at offset %d", l.runeAt(), l.pos)
}

// runeAt returns the rune at l.pos, utf8.RuneError for an invalid byte.
func (l *Lexer) runeAt() rune {
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

// identifier scans an identifier or keyword starting at l.pos, which holds
// a letter or '_'. keyword folds ASCII letters only, so a word with any
// other letter, such as ſelect, is never a keyword.
func (l *Lexer) identifier() Token {
	start := l.pos
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c < utf8.RuneSelf {
			if !isASCIILetter(c) && !('0' <= c && c <= '9') && c != '_' {
				break
			}
			l.pos++
			continue
		}
		r, w := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		l.pos += w
	}
	text := l.src[start:l.pos]
	if kw, ok := keyword(text); ok {
		return Token{Kind: TokKeyword, Text: kw, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

// stringLiteral scans a quoted literal starting at l.pos. A doubled
// quote escapes a quote; a literal without one is a substring of the
// input.
func (l *Lexer) stringLiteral() (Token, error) {
	start := l.pos
	escaped := false
	for i := start + 1; ; {
		q := strings.IndexByte(l.src[i:], '\'')
		if q < 0 {
			return Token{}, fmt.Errorf("sqlx: unterminated string literal at offset %d", start)
		}
		i += q
		if i+1 < len(l.src) && l.src[i+1] == '\'' {
			escaped = true
			i += 2
			continue
		}
		l.pos = i + 1
		text := l.src[start+1 : i]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || '\t' <= c && c <= '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c >= utf8.RuneSelf:
			r, w := utf8.DecodeRuneInString(l.src[l.pos:])
			if !unicode.IsSpace(r) {
				return
			}
			l.pos += w
		default:
			return
		}
	}
}

func isASCIILetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// Tokenize returns all tokens in src, excluding the trailing EOF token.
// The parser does not call it: it reads the lexer a token at a time.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Workload statements run five to seven bytes per token, so a fourth
	// of the length holds their tokens without regrowing. The cap keeps a
	// long text of few tokens, such as one big literal, from reserving
	// room for tokens it does not have.
	out := make([]Token, 0, min(len(src)/4+1, 1024))
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
