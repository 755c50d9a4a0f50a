package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/workloads"
)

// FuzzIngestBody sends any body to POST /ingest and then retunes. The
// handler answers 200, 400 or 413 and never panics; on 200 every
// statement of the body is either accepted or rejected. The retune that
// follows succeeds, or finds nothing to tune: an empty window, or one in
// which no statement binds.
func FuzzIngestBody(f *testing.F) {
	body := func(stmts ...string) []byte {
		b, err := json.Marshal(IngestRequest{Statements: stmts})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, sql := range workloads.TPCH22SQL() {
		f.Add(body(sql))
	}
	f.Add(body(phase1...))
	f.Add(body("SELECT x FROM nosuchtable", phase2[0]))
	f.Add(body("SELECT x FROM nosuchtable"))
	f.Add(body("SELECT FROM WHERE", ""))
	f.Add(body())
	f.Add([]byte(`{"statements": [`))
	f.Add([]byte(`{"statements": "SELECT s_name FROM supplier"}`))
	f.Add([]byte(`{"statements": [1, null]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	db := datagen.TPCH(0.001)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := New(Options{DB: db, Tuning: core.Options{SpaceBudget: 2 << 20, MaxIterations: 5, Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rr := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b)))
		switch rr.Code {
		case http.StatusOK:
			var req IngestRequest
			if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			var res IngestResult
			if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with an unreadable result %q: %v", rr.Body.Bytes(), err)
			}
			if res.Accepted+res.Rejected != len(req.Statements) {
				t.Fatalf("%d accepted + %d rejected of %d statements", res.Accepted, res.Rejected, len(req.Statements))
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		if _, err := s.Retune(); err != nil && !errors.Is(err, ErrEmptyWindow) {
			t.Fatalf("retune: %v", err)
		}
	})
}
