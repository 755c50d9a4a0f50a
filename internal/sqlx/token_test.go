package sqlx

import "testing"

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, b FROM t WHERE a >= 10.5 AND b <> 'x''y'")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "SELECT"}, {TokIdent, "a"}, {TokSymbol, ","}, {TokIdent, "b"},
		{TokKeyword, "FROM"}, {TokIdent, "t"}, {TokKeyword, "WHERE"},
		{TokIdent, "a"}, {TokSymbol, ">="}, {TokNumber, "10.5"},
		{TokKeyword, "AND"}, {TokIdent, "b"}, {TokSymbol, "<>"}, {TokString, "x'y"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d: got (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestTokenizeLineComments(t *testing.T) {
	toks, err := Tokenize("SELECT a -- trailing comment\nFROM t")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	if len(toks) != 4 {
		t.Fatalf("expected comment to be skipped, got %v", toks)
	}
}

func TestTokenizeNotEqualsAlias(t *testing.T) {
	toks, err := Tokenize("a != 3")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	if toks[1].Text != "<>" {
		t.Errorf("!= should normalize to <>, got %q", toks[1].Text)
	}
}

func TestTokenizeKeywordsCaseInsensitive(t *testing.T) {
	toks, err := Tokenize("select From wHeRe")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	for _, tok := range toks {
		if tok.Kind != TokKeyword {
			t.Errorf("%q should be a keyword", tok.Text)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "a @ b", "a # b"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

func TestTokenizeUnderscoreIdents(t *testing.T) {
	toks, err := Tokenize("l_orderkey _x x9")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	for _, tok := range toks {
		if tok.Kind != TokIdent {
			t.Errorf("%q should be an identifier, got %v", tok.Text, tok.Kind)
		}
	}
}

// The lexer reads UTF-8: a non-ASCII letter is part of an identifier, a
// non-ASCII space separates tokens, keywords match ASCII letters only, and
// a lexical error names the rune at its byte offset.
func TestLexUTF8(t *testing.T) {
	for _, tc := range []struct {
		src, sql, err string
	}{
		{src: "SELECT à FROM t", sql: "SELECT à FROM t"},
		{src: "SELECT é FROM t", sql: "SELECT é FROM t"},
		{src: "SELECT a\u0085b FROM t", sql: "SELECT a AS b FROM t"},
		{src: "SELECT a FROM　t", sql: "SELECT a FROM t"},
		{src: "SELECT x٣, Ωmega FROM tæble WHERE x٣ = 'ü'", sql: "SELECT x٣, Ωmega FROM tæble WHERE x٣ = 'ü'"},
		{src: "SELECT ſelect FROM t", sql: "SELECT ſelect FROM t"},
		{src: "ſelect a FROM t", err: "sqlx: expected statement, got ſelect"},
		{src: "SELECT a © b FROM t", err: "sqlx: unexpected character '©' at offset 9"},
		{src: "SELECT a\u00a0FROM\u3000t", sql: "SELECT a FROM t"},
	} {
		stmt, err := Parse(tc.src)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("Parse(%q): error %v, want %q", tc.src, err, tc.err)
			}
		case err != nil:
			t.Errorf("Parse(%q): %v", tc.src, err)
		case stmt.SQL() != tc.sql:
			t.Errorf("Parse(%q).SQL() = %q, want %q", tc.src, stmt.SQL(), tc.sql)
		}
	}
	toks, err := Tokenize("ſelect SELECT")
	if err != nil || len(toks) != 2 || toks[0].Kind != TokIdent || toks[1].Kind != TokKeyword {
		t.Errorf("Tokenize: keywords must match ASCII only: %v %v", toks, err)
	}
}
