package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// The fleet surface answers with the single-tenant service's HTTP
// helpers and payload shapes (service.WriteJSON, ErrorResponse,
// DecodeIngest, RetuneRequest.Budget, ServeReady, ...), so the two
// cannot drift apart.

// tenantsResponse wraps GET /tenants.
type tenantsResponse struct {
	Tenants []TenantStatus `json:"tenants"`
}

// readyResponse is the GET /readyz payload.
type readyResponse = service.ReadyResponse

// fleetAlerts is the GET /alerts payload: the rollup plus every
// tenant's full alert-engine status.
type fleetAlerts struct {
	Rollup  AlertRollup                `json:"rollup"`
	Tenants map[string]obs.AlertStatus `json:"tenants"`
}

// fleetMetricsJSON is the GET /metrics JSON payload: fleet-wide status
// plus each tenant's full service snapshot.
type fleetMetricsJSON struct {
	Fleet   Status                             `json:"fleet"`
	Tenants map[string]service.MetricsSnapshot `json:"tenants"`
}

// NewHandler exposes the fleet over HTTP/JSON:
//
//	POST   /tenants                register a tenant (TenantSpec body)
//	GET    /tenants                list tenants with live status
//	GET    /tenants/{tenant}       one tenant's status row
//	DELETE /tenants/{tenant}       deregister (drains its retune first)
//	ANY    /tenants/{tenant}/...   the full single-tenant API, scoped:
//	                               /ingest /recommendation /retune
//	                               /sessions /diff /progress /metrics ...
//	GET    /fleet                  fleet-wide status snapshot
//	GET    /metrics                all tenants + fleet counters (JSON;
//	                               Prometheus text with a tenant label
//	                               per series when Accept: text/plain
//	                               or ?format=prometheus)
//	GET    /healthz                liveness (shared HealthStatus shape)
//	GET    /readyz                 readiness: 503 + Retry-After while the
//	                               shared retune pool is saturated
//	GET    /alerts                 per-tenant alert statuses + rollup
//	                               (?format=text for a plain rendering)
//
// Tenant-scoped ingest passes through the tenant's quota: over-rate
// batches are rejected whole with 429 and a Retry-After header. Tenant
// retunes run on the shared worker pool (serialized per tenant), not on
// the request goroutine's own schedule.
func NewHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /tenants", func(w http.ResponseWriter, req *http.Request) {
		var spec TenantSpec
		if !service.DecodeBody(w, req, &spec, false) {
			return
		}
		t, err := r.Add(spec)
		if err != nil {
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "already registered") {
				status = http.StatusConflict
			}
			service.WriteJSON(w, status, service.ErrorResponse{Error: err.Error()})
			return
		}
		service.WriteJSON(w, http.StatusCreated, r.tenantStatus(t))
	})

	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, req *http.Request) {
		service.WriteJSON(w, http.StatusOK, tenantsResponse{Tenants: r.Status().Tenants})
	})

	mux.HandleFunc("GET /tenants/{tenant}", func(w http.ResponseWriter, req *http.Request) {
		t := r.Get(req.PathValue("tenant"))
		if t == nil {
			writeUnknownTenant(w, req.PathValue("tenant"))
			return
		}
		service.WriteJSON(w, http.StatusOK, r.tenantStatus(t))
	})

	mux.HandleFunc("DELETE /tenants/{tenant}", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("tenant")
		if err := r.Remove(id); err != nil {
			writeUnknownTenant(w, id)
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]string{"removed": id})
	})

	mux.HandleFunc("/tenants/{tenant}/{rest...}", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("tenant")
		t := r.Get(id)
		if t == nil {
			writeUnknownTenant(w, id)
			return
		}
		switch rest := req.PathValue("rest"); {
		case rest == "ingest" && req.Method == http.MethodPost:
			r.serveIngest(t, w, req)
		case rest == "retune" && req.Method == http.MethodPost:
			r.serveRetune(t, w, req)
		default:
			http.StripPrefix("/tenants/"+id, t.handler).ServeHTTP(w, req)
		}
	})

	mux.HandleFunc("GET /fleet", func(w http.ResponseWriter, req *http.Request) {
		service.WriteJSON(w, http.StatusOK, r.Status())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		if service.WantsPrometheus(req) {
			r.renderPrometheus(w)
			return
		}
		out := fleetMetricsJSON{Fleet: r.Status(), Tenants: map[string]service.MetricsSnapshot{}}
		for _, t := range r.List() {
			out.Tenants[t.Spec.ID] = t.Service.MetricsSnapshot()
		}
		service.WriteJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		service.WriteJSON(w, http.StatusOK, r.Health())
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		ready, reasons := r.Ready()
		service.ServeReady(w, req, ready, reasons)
	})

	mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, req *http.Request) {
		if r.opts.Defaults.Monitor.HistoryInterval <= 0 {
			service.WriteJSON(w, http.StatusConflict, service.ErrorResponse{
				Error: "self-monitoring disabled; start with -history-interval > 0",
			})
			return
		}
		out := fleetAlerts{Rollup: r.Status().Alerts, Tenants: map[string]obs.AlertStatus{}}
		tenants := r.List()
		for _, t := range tenants {
			out.Tenants[t.Spec.ID] = t.Service.Alerts().Status()
		}
		if service.WantsText(req) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "fleet alerts: %d firing across %d tenants\n",
				out.Rollup.Firing, len(tenants))
			for _, t := range tenants {
				st := out.Tenants[t.Spec.ID]
				fmt.Fprintf(w, "\n=== tenant %s ===\n", t.Spec.ID)
				st.WriteText(w)
			}
			return
		}
		service.WriteJSON(w, http.StatusOK, out)
	})

	return mux
}

// tenantStatus builds t's row of Status alone.
func (r *Registry) tenantStatus(t *Tenant) TenantStatus {
	row, _ := tenantRow(t, r.pool.Depths()[t.Spec.ID])
	return row
}

// serveIngest is the quota-gated tenant ingest: the whole batch is
// admitted or the whole batch is rejected with 429 + Retry-After.
func (r *Registry) serveIngest(t *Tenant, w http.ResponseWriter, req *http.Request) {
	// Decoded here, not by the tenant's handler, so the quota sees the
	// batch size before any statement is admitted.
	stmts, ok := service.DecodeIngest(w, req)
	if !ok {
		return
	}
	if ok, retryAfter := t.quota.take(len(stmts), time.Now()); !ok {
		r.noteQuotaRejection(t)
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		service.WriteJSON(w, http.StatusTooManyRequests, service.ErrorResponse{
			Error: fmt.Sprintf("tenant %s over ingestion quota (%g statements/s, burst %d); retry after %ds",
				t.Spec.ID, t.Spec.Quota.RatePerSec, t.Spec.Quota.Burst, secs),
		})
		return
	}
	service.WriteJSON(w, http.StatusOK, t.Service.Ingest(stmts))
}

// serveRetune runs a tenant retune through the shared worker pool —
// synchronous for the caller, serialized per tenant, fair across the
// fleet.
func (r *Registry) serveRetune(t *Tenant, w http.ResponseWriter, req *http.Request) {
	var body service.RetuneRequest
	if !service.DecodeBody(w, req, &body, true) {
		return
	}
	budget, override, err := body.Budget()
	if err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: err.Error()})
		return
	}
	ch := r.pool.Submit(t.Spec.ID, "manual", budget, override)
	select {
	case <-req.Context().Done():
		// The client left; the queued session still runs (its result
		// lands in the recorder), there is just no one to answer.
		return
	case res := <-ch:
		if res.err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(res.err, service.ErrEmptyWindow):
				status = http.StatusConflict
			case errors.Is(res.err, ErrTenantRemoved), errors.Is(res.err, ErrPoolClosed):
				status = http.StatusGone
			}
			service.WriteJSON(w, status, service.ErrorResponse{Error: res.err.Error()})
			return
		}
		service.WriteJSON(w, http.StatusOK, service.RetuneResponse{Recommendation: res.rec})
	}
}

// renderPrometheus writes the fleet scrape: the fleet's own registry
// plain, then every tenant registry's families merged with a
// tenant="<id>" label on each sample.
func (r *Registry) renderPrometheus(w http.ResponseWriter) {
	r.metrics.refresh(r)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.metrics.reg.Render(w)
	tenants := r.List()
	regs := make([]obs.LabeledRegistry, 0, len(tenants))
	for _, t := range tenants {
		t.Service.RefreshPromGauges()
		regs = append(regs, obs.LabeledRegistry{Value: t.Spec.ID, Registry: t.Service.PromRegistry()})
	}
	obs.RenderMerged(w, "tenant", regs)
}

// writeUnknownTenant is the uniform 404 for a missing tenant ID.
func writeUnknownTenant(w http.ResponseWriter, id string) {
	service.WriteJSON(w, http.StatusNotFound, service.ErrorResponse{Error: fmt.Sprintf("unknown tenant %q", id)})
}
