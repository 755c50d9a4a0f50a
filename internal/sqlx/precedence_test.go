package sqlx_test

import (
	"testing"

	"repro/internal/sqlx"
)

// errorPrecedence lists texts whose head meets a parse error, trailing
// input or a clean end, followed by a tail that holds a lexical error or
// is empty. parse and script are the errors Parse and ParseScript return
// for the head alone, "" for none. The parser reads the lexer a token at
// a time, so on most of these it fails before it has lexed the tail; the
// input's first lexical error must win all the same.
var errorPrecedence = []struct {
	head, tail    string
	parse, script string
}{
	// A parse error before a lexical error.
	{"SELECT FROM t WHERE a", " @ b",
		`sqlx: expected expression, got FROM`, `sqlx: expected expression, got FROM`},
	{"SELECT a FROM t x y", " 'open",
		`sqlx: unexpected trailing input near y`, `sqlx: expected ';' between statements, got y`},
	// Trailing input before a lexical error.
	{"SELECT a FROM t WHERE a = 1 b", " $",
		`sqlx: unexpected trailing input near b`, `sqlx: expected ';' between statements, got b`},
	{"SELECT a FROM t; SELECT b FROM u", " WHERE b = 'x",
		`sqlx: unexpected trailing input near SELECT`, ``},
	// A script whose first statement fails to parse and whose second
	// holds the lexical error.
	{"SELECT FROM t; SELECT a FROM u WHERE a", " @ 1",
		`sqlx: expected expression, got FROM`, `sqlx: expected expression, got FROM`},
	// A head that parses, or ends early, and a lexical error after it.
	{"SELECT a FROM t", " $",
		``, ``},
	{"SELECT a FROM t WHERE a =", " 'open",
		`sqlx: expected expression, got end of input`, `sqlx: expected expression, got end of input`},
	// Clean inputs.
	{"SELECT a FROM t", "", ``, ``},
	{"SELECT a FROM t;", "", ``, ``},
	{"SELECT a FROM t; SELECT b FROM u", "",
		`sqlx: unexpected trailing input near SELECT`, ``},
	{"", "", `sqlx: expected statement, got end of input`, ``},
	{"SELECT a FROM t WHERE", "",
		`sqlx: expected expression, got end of input`, `sqlx: expected expression, got end of input`},
}

// errorPrecedenceInputs are errorPrecedence's texts, as fuzz seeds.
var errorPrecedenceInputs = func() []string {
	var out []string
	for _, tc := range errorPrecedence {
		out = append(out, tc.head+tc.tail)
	}
	return out
}()

// TestParseLexicalErrorWins checks which error Parse and ParseScript
// return: the reference lexer's error if the text has a lexical error
// anywhere, else the parse error.
func TestParseLexicalErrorWins(t *testing.T) {
	for _, tc := range errorPrecedence {
		src := tc.head + tc.tail
		if _, err := sqlx.Parse(tc.head); errString(err) != tc.parse {
			t.Errorf("Parse(%q) = %v, want %q", tc.head, err, tc.parse)
		}
		if _, err := sqlx.ParseScript(tc.head); errString(err) != tc.script {
			t.Errorf("ParseScript(%q) = %v, want %q", tc.head, err, tc.script)
		}
		wantParse, wantScript := tc.parse, tc.script
		_, rerr := sqlx.RefTokenize(src)
		if (rerr != nil) != (tc.tail != "") {
			t.Fatalf("RefTokenize(%q) = %v: the tail %q must hold the only lexical error", src, rerr, tc.tail)
		}
		if rerr != nil {
			wantParse, wantScript = rerr.Error(), rerr.Error()
		}
		if _, err := sqlx.Parse(src); errString(err) != wantParse {
			t.Errorf("Parse(%q) = %v, want %q", src, err, wantParse)
		}
		if _, err := sqlx.ParseScript(src); errString(err) != wantScript {
			t.Errorf("ParseScript(%q) = %v, want %q", src, err, wantScript)
		}
	}
}
