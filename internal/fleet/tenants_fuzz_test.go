package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// FuzzTenantsBody sends any body to POST /tenants. The handler never
// panics and answers 201, 400, 409 or 413. A 201 goes only to a body
// that is one JSON value with nothing but whitespace after it, and whose
// budget is in range. Every tenant's catalog is one fixed tiny catalog
// and no replay source is configured, so no input builds data; a
// registered tenant is removed before the next input.
func FuzzTenantsBody(f *testing.F) {
	for _, b := range []string{
		`{"id":"alpha","database":"tpch"}`,
		`{"id":"taken","database":"tpch"}`,
		`{"id":"alpha","database":"tpch","budget_mb":-1}`,
		`{"id":"alpha","database":"tpch","budget_mb":1e300}`,
		`{"id":"alpha","database":"tpch","budget_mb":1e-300}`,
		`{"id":"alpha","database":"tpch","budget_mb":0.5}`,
		`{"id":"","database":"tpch"}`,
		`{"id":"Alpha","database":"tpch"}`,
		`{"id":"-alpha","database":"tpch"}`,
		`{"id":"al pha","database":"tpch"}`,
		`{"id":"alpha"}`,
		`null`,
		`not json`,
		``,
		`{"id":"alpha","database":"tpch"} x`,
		`{"id":"alpha","database":"tpch"}{"id":`,
		"{\"id\":\"alpha\",\"database\":\"tpch\"}\n",
		`{"id":"alpha","database":"tpch","window_observations":9223372036854775807,"window_max_unique":9223372036854775807,"half_life":9223372036854775807,"max_iterations":9223372036854775807,"drift_check_every":9223372036854775807}`,
		`{"id":"alpha","database":"tpch","scale_factor":1e300,"quota":{"rate_per_sec":1e300,"burst":9223372036854775807}}`,
	} {
		f.Add([]byte(b))
	}
	db := datagen.TPCH(0.001)
	r, err := New(Options{
		Workers:  1,
		Catalog:  func(string, float64) (*catalog.Database, error) { return db, nil },
		Defaults: testDefaults(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { r.Close() })
	if _, err := r.Add(TenantSpec{ID: "taken", Database: "tpch"}); err != nil {
		f.Fatal(err)
	}
	h := NewHandler(r)

	f.Fuzz(func(t *testing.T, b []byte) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/tenants", bytes.NewReader(b)))
		switch rr.Code {
		case http.StatusCreated:
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		var got TenantStatus
		if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
			t.Fatalf("201 with an unreadable status %q: %v", rr.Body.Bytes(), err)
		}
		if err := r.Remove(got.ID); err != nil {
			t.Fatalf("201 for tenant %q, then: %v", got.ID, err)
		}
		if !json.Valid(b) {
			t.Fatalf("201 for a body that is not one JSON value: %q", b)
		}
		var spec TenantSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			t.Fatalf("201 for a body that is no TenantSpec (%v): %q", err, b)
		}
		// The range rule written out, not asked of the code under test:
		// 0 is the fleet default, anything else must hold from one byte
		// to what an int64 of bytes holds.
		if mb := spec.BudgetMB; mb != 0 {
			if v := mb * (1 << 20); !(v >= 1 && v < 1<<63) {
				t.Fatalf("201 for budget_mb %g", mb)
			}
		}
	})
}
