package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// FuzzRetuneBody sends any body to POST /retune over a window that
// binds. The handler answers 200, 400, 409 or 413 and never panics. It
// answers 400 exactly when a non-empty body is not one RetuneRequest
// (refDecode) or its budget is out of range, so a negative budget, one
// no int64 of bytes holds and one under a byte never get a 200: the
// tuner would read them as no budget at all.
func FuzzRetuneBody(f *testing.F) {
	for _, b := range []string{
		`{}`, `{"budget_mb":0.05}`, `{"budget_mb":-1}`, `{"budget_mb":1e300}`, `null`, `not json`,
		``, `{"budget_mb":0}`, `{"budget_mb":-0}`, `{"budget_mb":1e-300}`, `{"budget_mb":8796093022207}`,
		`{"budget_mb":8796093022208}`, `{"budget_mb":"1"}`, `{"budget_mb":null}`, `{"budget_mb":1}{"x":`,
		`{"budget_mb":1} x`, "{\"budget_mb\":1}\n", ` `,
	} {
		f.Add([]byte(b))
	}
	s, err := New(Options{DB: datagen.TPCH(0.001), Tuning: core.Options{SpaceBudget: 2 << 20, MaxIterations: 5, Parallelism: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	s.Ingest(phase1)
	h := NewHandler(s)

	f.Fuzz(func(t *testing.T, b []byte) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/retune", bytes.NewReader(b)))
		var req RetuneRequest
		refErr := refDecode(b, &req)
		if errors.Is(refErr, io.EOF) {
			refErr = nil // an empty body asks for the configured budget
		}
		// The range rule written out, not asked of the code under test:
		// 0 is unconstrained, anything else must hold from one byte to
		// what an int64 of bytes holds.
		if mb := req.BudgetMB; refErr == nil && mb != nil {
			if b := *mb * (1 << 20); !(*mb == 0 || b >= 1 && b < 1<<63) {
				refErr = fmt.Errorf("budget_mb %g out of range", *mb)
			}
		}
		switch rr.Code {
		case http.StatusOK, http.StatusConflict:
			if refErr != nil {
				t.Fatalf("%d for a body the reference rejects (%v): %s", rr.Code, refErr, rr.Body.Bytes())
			}
		case http.StatusBadRequest:
			if refErr == nil {
				t.Fatalf("400 for a body the reference accepts: %s", rr.Body.Bytes())
			}
		case http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
	})
}
