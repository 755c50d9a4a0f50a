package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/workloads"
)

// ingestSeeds are FuzzIngestBody's seed bodies: the TPC-H statements one
// to a body, a window's worth, statements that do not parse or bind, and
// bodies that are not an IngestRequest.
func ingestSeeds(tb testing.TB) [][]byte {
	body := func(stmts ...string) []byte {
		b, err := json.Marshal(IngestRequest{Statements: stmts})
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	var seeds [][]byte
	for _, sql := range workloads.TPCH22SQL() {
		seeds = append(seeds, body(sql))
	}
	return append(seeds,
		body(phase1...),
		body("SELECT x FROM nosuchtable", phase2[0]),
		body("SELECT x FROM nosuchtable"),
		body("SELECT FROM WHERE", ""),
		body(),
		append(body(phase2[0]), `{"statements":[`...),
		append(body(phase2[0]), " \n"...),
		[]byte(`{"statements": [`),
		[]byte(`{"statements": "SELECT s_name FROM supplier"}`),
		[]byte(`{"statements": [1, null]}`),
		[]byte(`not json`),
		[]byte(``),
	)
}

// decoderSeeds are the bodies every DecodeIngest check starts from:
// benchmark-shaped batches, escapes, non-ASCII and invalid UTF-8, lone
// surrogates, JSON whitespace, trailing bytes, and shapes the one-pass
// scan leaves to encoding/json.
var decoderSeeds = []string{
	`{"statements":["a\"b","c\\d","é\n\t\/","A"]}`,
	`{"statements":["SELECT c_name FROM customer WHERE c_name = 'Zoë'","日本語"]}`,
	"{\"statements\":[\"a\xff\xfeb\",\"\xc3\"]}",
	`{"statements":["\ud800","𐀀","x\udc00y","𝄞"]}`,
	`{"statements":["SELECT s_name FROM supplier"]} trailing garbage`,
	`{"statements":["SELECT s_name FROM supplier"]}{"statements":[1]}`,
	" \t\r\n{ \"statements\" :\n[ \"a\" ,\t\"b\" ] } ",
	`{"statements":[]}`,
	`{"statements":null}`,
	`{"statements":["a",null]}`,
	`{"Statements":["a"]}`,
	`{"STATEMENTS":["a"]}`,
	`{"statements":["a"]}`,
	`{"statements":["a"],"statements":["b"]}`,
	`{"other":1,"statements":["a"]}`,
	`{"statements":["a"],"other":1}`,
	`{"statements":["a",]}`,
	`{"statements":["a" "b"]}`,
	"{\"statements\":[\"a\x01b\"]}",
	"{\"statements\":[\"a\x7fb\"]}",
	`{"statements":["a\x"]}`,
	`{"statements":["a\u12"]}`,
	`{"statements":["a\`,
	`{"statements":["a"`,
	`{"statements":["a"]`,
	`{"statements":["a"]]`,
	`[]`,
	`null`,
	`{}`,
	"\xef\xbb\xbf{\"statements\":[\"a\"]}",
	` `,
}

// FuzzIngestBody sends any body to POST /ingest and then retunes. The
// handler answers 200, 400 or 413 and never panics. It answers 400
// exactly when the reference, refDecode, rejects the body as an
// IngestRequest or finds no statement in it, and on 200 every statement
// of the body is either accepted or rejected. The retune that follows
// succeeds, or finds nothing to tune: an empty window, or one in which
// no statement binds.
func FuzzIngestBody(f *testing.F) {
	for _, b := range ingestSeeds(f) {
		f.Add(b)
	}

	db := datagen.TPCH(0.001)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := New(Options{DB: db, Tuning: core.Options{SpaceBudget: 2 << 20, MaxIterations: 5, Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rr := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b)))
		var req IngestRequest
		refErr := refDecode(b, &req)
		refRejects := refErr != nil || len(req.Statements) == 0
		switch rr.Code {
		case http.StatusOK:
			if refRejects {
				t.Fatalf("200 for a body the reference rejects (%v, %d statements)", refErr, len(req.Statements))
			}
			var res IngestResult
			if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with an unreadable result %q: %v", rr.Body.Bytes(), err)
			}
			if res.Accepted+res.Rejected != len(req.Statements) {
				t.Fatalf("%d accepted + %d rejected of %d statements", res.Accepted, res.Rejected, len(req.Statements))
			}
		case http.StatusBadRequest:
			if !refRejects {
				t.Fatalf("400 for a body the reference decodes to %d statements: %s", len(req.Statements), rr.Body.Bytes())
			}
		case http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		if _, err := s.Retune(); err != nil && !errors.Is(err, ErrEmptyWindow) {
			t.Fatalf("retune: %v", err)
		}
	})
}

// refDecode is the reference every body decoder is held to: encoding/json's
// Decoder decodes one value of b into v, and only JSON whitespace may
// follow it. What else follows is the error json.Unmarshal reports for
// the whole of b.
func refDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) == 0 {
		return nil
	}
	if err := json.Unmarshal(b, new(any)); err != nil {
		return err
	}
	return errors.New("reference: bytes after the value, and json.Unmarshal accepts the body")
}

// FuzzDecodeIngestMatchesReference holds DecodeIngest to encoding/json
// on any body: see checkDecodeIngest.
func FuzzDecodeIngestMatchesReference(f *testing.F) {
	for _, n := range []int{1, 3, 100} {
		f.Add(benchShapedBody(n))
	}
	for _, b := range decoderSeeds {
		f.Add([]byte(b))
	}
	for _, b := range ingestSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(checkDecodeIngest)
}

// checkDecodeIngest decodes b with DecodeIngest and with the reference,
// refDecode(b, &IngestRequest{}): encoding/json's Decoder, as every ingest
// body was decoded before the one-pass scan, with nothing but JSON
// whitespace after the value. Where the reference yields
// statements, DecodeIngest must return the same strings byte for byte
// and write nothing; where it fails or yields none, DecodeIngest must
// write the same 400 response, byte for byte.
func checkDecodeIngest(t *testing.T, b []byte) {
	rr := httptest.NewRecorder()
	got, ok := DecodeIngest(rr, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b)))
	var req IngestRequest
	refErr := refDecode(b, &req)
	want := httptest.NewRecorder()
	switch {
	case refErr != nil:
		writeBodyError(want, refErr)
	case len(req.Statements) == 0:
		WriteJSON(want, http.StatusBadRequest, ErrorResponse{Error: "statements is empty"})
	default:
		if !ok || rr.Body.Len() > 0 {
			t.Fatalf("body %q: the reference decodes %d statements, DecodeIngest answered %d %s", b, len(req.Statements), rr.Code, rr.Body.Bytes())
		}
		if !slices.Equal(got, req.Statements) {
			t.Fatalf("body %q: DecodeIngest returned %q, the reference %q", b, got, req.Statements)
		}
		return
	}
	if ok {
		t.Fatalf("body %q: DecodeIngest returned %q, the reference answers %d %s", b, got, want.Code, want.Body.Bytes())
	}
	if rr.Code != want.Code || !bytes.Equal(rr.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("body %q: DecodeIngest answered %d %s, the reference %d %s", b, rr.Code, rr.Body.Bytes(), want.Code, want.Body.Bytes())
	}
}

// benchShapedBody is a POST /ingest body as the benchmark's clients
// write it: n statements on one line each, single-spaced, none with a
// byte JSON escapes, in {"statements":[…]} without whitespace.
func benchShapedBody(n int) []byte {
	sqls := workloads.TPCH22SQL()
	b := []byte(`{"statements":[`)
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, strings.Join(strings.Fields(sqls[i%len(sqls)]), " ")...)
		b = append(b, '"')
	}
	return append(b, "]}"...)
}
