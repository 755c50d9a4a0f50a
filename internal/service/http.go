package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// MaxBodyBytes bounds every request body the daemon decodes; a larger
// one is answered 413 before it can occupy memory.
const MaxBodyBytes = 16 << 20

// IngestRequest is the POST /ingest payload. DecodeIngest scans a body
// of exactly this shape whose strings hold no escape and no non-ASCII
// byte itself, and hands any other to encoding/json with this type,
// which is also the reference its tests hold it to.
type IngestRequest struct {
	// Statements are observed SQL statements, one entry per execution
	// (repeat a statement to weight it).
	Statements []string `json:"statements"`
}

// RetuneRequest is the optional POST /retune payload.
type RetuneRequest struct {
	// BudgetMB overrides the space budget for this session only
	// (fractional MB allowed; 0 = unconstrained).
	BudgetMB *float64 `json:"budget_mb,omitempty"`
}

// Budget is the request's space budget in bytes, from BudgetBytes, and
// whether it overrides the configured one.
func (r RetuneRequest) Budget() (int64, bool, error) {
	if r.BudgetMB == nil {
		return 0, false, nil
	}
	b, err := BudgetBytes(*r.BudgetMB)
	return b, err == nil, err
}

// BudgetBytes converts a space budget in MB to bytes. mb must be 0
// (unconstrained) or from one byte up to, not including, 8 EiB: the
// tuner reads any budget of 0 or less as none, so a negative one, one
// that overflows int64 or one that rounds down to 0 bytes would silently
// lift the limit, and is an error instead.
func BudgetBytes(mb float64) (int64, error) {
	b := mb * (1 << 20)
	if !(mb == 0 || b >= 1 && b < 1<<63) {
		return 0, fmt.Errorf("budget_mb %g out of range: want 0 (unconstrained) or from 1 byte to under %d MB", mb, 1<<43)
	}
	return int64(b), nil
}

// ErrorResponse is the uniform JSON error shape.
type ErrorResponse struct {
	Error string `json:"error"`
}

// healthResponse is the GET /healthz payload — the HealthStatus shape
// shared with fleet mode.
type healthResponse = HealthStatus

// ReadyResponse is the GET /readyz payload.
type ReadyResponse struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// RetuneResponse wraps POST /retune results.
type RetuneResponse struct {
	Recommendation *Recommendation `json:"recommendation"`
}

// sessionsResponse wraps GET /sessions.
type sessionsResponse struct {
	Sessions []obs.SessionSummary `json:"sessions"`
}

// NewHandler exposes the service over HTTP/JSON:
//
//	POST /ingest          {"statements": ["SELECT ...", ...]}
//	GET  /recommendation  current advice (503 + Retry-After before the
//	                      first retune)
//	GET  /explain         per-structure decision log of the last retune
//	GET  /profile         per-phase performance profile across retunes
//	                      (JSON by default; ?format=text for a table)
//	POST /retune          tune the current window synchronously; the
//	                      optional body {"budget_mb": N} overrides the
//	                      space budget for this session only
//	GET  /progress        live per-iteration search events over SSE
//	                      (?timeout=30s and ?max=N bound the stream)
//	GET  /calibration     cost-model calibration report of the last
//	                      retune (?format=text for a table);
//	                      ?ground_truth=1 first replays the recommendation
//	                      against materialized data and attaches the
//	                      measured speedup / tightness / rank correlation
//	GET  /workload        workload introspection: the window grouped by
//	                      statement signature with weight/cost shares,
//	                      demanded structures, sketch state, and the
//	                      latest drift assessment (?format=text for a
//	                      table)
//	GET  /sessions        flight-recorder history (newest last)
//	GET  /sessions/{id}   one recorded session in full
//	GET  /diff            structural delta between two recorded sessions
//	                      (?from=&to=; defaults to the two most recent)
//	GET  /metrics         activity counters (JSON by default; Prometheus
//	                      text when the Accept header asks for text/plain
//	                      or ?format=prometheus)
//	GET  /metrics/history windowed time series sampled from the registry
//	                      (?series=a,b&points=N&since=5m; 409 when
//	                      self-monitoring is disabled)
//	GET  /alerts          SLO alert engine state: every rule, its firing/
//	                      pending instances, and recent transitions
//	                      (?format=text for a table; 409 when disabled)
//	GET  /healthz         liveness (the HealthStatus shape shared with
//	                      fleet mode)
//	GET  /readyz          readiness: 503 + Retry-After until the first
//	                      retune completed, 200 after
//
// Read endpoints that depend on a completed retune (/recommendation,
// /explain, /profile, /diff) answer 503 with a Retry-After header and a
// JSON error body until the data exists — "not ready yet" rather than
// 404's "no such resource". JSON read endpoints uniformly accept
// ?format=text for a terminal-friendly rendering.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		stmts, ok := DecodeIngest(w, r)
		if !ok {
			return
		}
		WriteJSON(w, http.StatusOK, s.Ingest(stmts))
	})

	mux.HandleFunc("GET /recommendation", func(w http.ResponseWriter, r *http.Request) {
		rec := s.Recommendation()
		if rec == nil {
			writeNoData(w, "no recommendation yet; ingest a workload and POST /retune")
			return
		}
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, rec.DDL)
			return
		}
		WriteJSON(w, http.StatusOK, rec)
	})

	mux.HandleFunc("POST /retune", func(w http.ResponseWriter, r *http.Request) {
		var req RetuneRequest
		if !DecodeBody(w, r, &req, true) {
			return
		}
		budget, override, err := req.Budget()
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		rec, err := s.retune("manual", budget, override)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrEmptyWindow) {
				status = http.StatusConflict
			}
			WriteJSON(w, status, ErrorResponse{Error: err.Error()})
			return
		}
		WriteJSON(w, http.StatusOK, RetuneResponse{Recommendation: rec})
	})

	mux.HandleFunc("GET /drift", func(w http.ResponseWriter, r *http.Request) {
		rep := s.CheckDrift()
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteText(w)
			return
		}
		WriteJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /explain", func(w http.ResponseWriter, r *http.Request) {
		rep := s.Explain()
		if rep == nil {
			writeNoData(w, "no explain report yet; ingest a workload and POST /retune")
			return
		}
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteText(w)
			return
		}
		WriteJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /profile", func(w http.ResponseWriter, r *http.Request) {
		if s.promGauges.retunes.Value() == 0 {
			writeNoData(w, "no profile yet; ingest a workload and POST /retune")
			return
		}
		rep := s.Profile()
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteText(w)
			return
		}
		WriteJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /progress", func(w http.ResponseWriter, r *http.Request) {
		serveProgress(s, w, r)
	})

	mux.HandleFunc("GET /calibration", func(w http.ResponseWriter, r *http.Request) {
		groundTruth := false
		switch r.URL.Query().Get("ground_truth") {
		case "", "0", "false":
		case "1", "true":
			groundTruth = true
		default:
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid ground_truth (want 0/1)"})
			return
		}
		cal, err := s.Calibration(groundTruth)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrReplayUnavailable) {
				status = http.StatusConflict
			}
			WriteJSON(w, status, ErrorResponse{Error: err.Error()})
			return
		}
		if cal == nil {
			writeNoData(w, "no calibration report yet; ingest a workload and POST /retune")
			return
		}
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			cal.WriteText(w)
			return
		}
		WriteJSON(w, http.StatusOK, cal)
	})

	mux.HandleFunc("GET /workload", func(w http.ResponseWriter, r *http.Request) {
		rep := s.WorkloadReport()
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteText(w)
			return
		}
		WriteJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		sums := s.Sessions()
		if sums == nil {
			sums = []obs.SessionSummary{} // an empty history is data, not an error
		}
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeSessionsText(w, sums)
			return
		}
		WriteJSON(w, http.StatusOK, sessionsResponse{Sessions: sums})
	})

	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec := s.Session(r.PathValue("id"))
		if rec == nil {
			WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown session " + r.PathValue("id")})
			return
		}
		WriteJSON(w, http.StatusOK, rec)
	})

	mux.HandleFunc("GET /diff", func(w http.ResponseWriter, r *http.Request) {
		from, to := r.URL.Query().Get("from"), r.URL.Query().Get("to")
		if (from == "" || to == "") && s.recorder.Len() < 2 {
			writeNoData(w, "diff needs two recorded sessions; POST /retune twice")
			return
		}
		diff, err := s.DiffSessions(from, to)
		if err != nil {
			WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
			return
		}
		WriteJSON(w, http.StatusOK, diff)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.MetricsSnapshot()
		if WantsPrometheus(r) {
			s.promGauges.update(snap)
			s.promReg.Handler().ServeHTTP(w, r)
			return
		}
		WriteJSON(w, http.StatusOK, snap)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Health())
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, reasons := s.Ready()
		ServeReady(w, r, ready, reasons)
	})

	mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, r *http.Request) {
		if !s.Alerts().Enabled() {
			writeMonitorDisabled(w)
			return
		}
		st := s.Alerts().Status()
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			st.WriteText(w)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /metrics/history", func(w http.ResponseWriter, r *http.Request) {
		if !s.History().Enabled() {
			writeMonitorDisabled(w)
			return
		}
		q, err := parseHistoryQuery(r)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		WriteJSON(w, http.StatusOK, s.History().Query(q))
	})

	return mux
}

// DecodeBody decodes a JSON request body of at most MaxBodyBytes into
// v and reports whether the handler should go on: a larger body has
// been answered 413, anything that is not one JSON value 400. optional
// accepts an empty body (v keeps its zero value). Every route but the
// ingest ones decodes through it; an ingest body goes through
// DecodeIngest.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	err := decodeOne(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
	if err == nil || optional && errors.Is(err, io.EOF) {
		return true
	}
	writeBodyError(w, err)
	return false
}

// decodeOne decodes the JSON value r holds into v with encoding/json's
// Decoder. Only JSON whitespace may follow the value; any other byte is
// an error, worded as json.Unmarshal words it, so a body with a second
// value or a fragment after the first is never half-read and obeyed.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest := io.MultiReader(dec.Buffered(), r)
	var chunk [512]byte
	for {
		n, err := rest.Read(chunk[:])
		if i := skipSpace(chunk[:n], 0); i < n {
			return fmt.Errorf("invalid character %q after top-level value", rune(chunk[i]))
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 when it exceeds MaxBodyBytes, 400 with err otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error: fmt.Sprintf("request body exceeds %d bytes", MaxBodyBytes),
		})
		return
	}
	WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid JSON: " + err.Error()})
}

// ServeReady renders the readiness probe answer: 200 once ready, 503
// with Retry-After and the blocking reasons until then — the same "not
// ready yet" contract as the pre-retune data endpoints, so a load
// balancer needs one convention, not two.
func ServeReady(w http.ResponseWriter, r *http.Request, ready bool, reasons []string) {
	if WantsText(r) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ready {
			w.Header().Set("Retry-After", "5")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "not ready: %s\n", strings.Join(reasons, "; "))
			return
		}
		io.WriteString(w, "ready\n")
		return
	}
	if !ready {
		w.Header().Set("Retry-After", "5")
		WriteJSON(w, http.StatusServiceUnavailable, ReadyResponse{Ready: false, Reasons: reasons})
		return
	}
	WriteJSON(w, http.StatusOK, ReadyResponse{Ready: true})
}

// writeMonitorDisabled answers reads of /alerts and /metrics/history
// when self-monitoring is off: 409 Conflict, because no amount of
// retrying turns the subsystem on — unlike the 503 "not ready yet" of
// pre-retune reads.
func writeMonitorDisabled(w http.ResponseWriter) {
	WriteJSON(w, http.StatusConflict, ErrorResponse{
		Error: "self-monitoring disabled; start with -history-interval > 0",
	})
}

// parseHistoryQuery maps /metrics/history query parameters onto an
// obs.HistoryQuery: ?series=a,b scopes to named series, ?points=N
// downsamples, ?since= accepts an RFC3339 instant or a "5m"-style
// lookback.
func parseHistoryQuery(r *http.Request) (obs.HistoryQuery, error) {
	var q obs.HistoryQuery
	if v := r.URL.Query().Get("series"); v != "" {
		q.Names = strings.Split(v, ",")
	}
	if v := r.URL.Query().Get("points"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return q, fmt.Errorf("invalid points: %s", v)
		}
		q.MaxPoints = n
	}
	if v := r.URL.Query().Get("since"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			q.Since = time.Now().Add(-d)
		} else if t, err := time.Parse(time.RFC3339, v); err == nil {
			q.Since = t
		} else {
			return q, fmt.Errorf("invalid since: %s (want RFC3339 or a duration)", v)
		}
	}
	return q, nil
}

// writeSessionsText renders the flight-recorder history as the table
// served by GET /sessions?format=text.
func writeSessionsText(w io.Writer, sums []obs.SessionSummary) {
	fmt.Fprintf(w, "%-16s %-8s %-20s %5s %10s %7s %7s %s\n",
		"ID", "TRIGGER", "FINISHED", "STMTS", "COST", "IMPR%", "STRUCTS", "SPEEDUP")
	for _, s := range sums {
		speedup := "-"
		if s.MeasuredSpeedup > 0 {
			speedup = fmt.Sprintf("%.2fx", s.MeasuredSpeedup)
		}
		fmt.Fprintf(w, "%-16s %-8s %-20s %5d %10.1f %7.1f %7d %s\n",
			s.ID, s.Trigger, s.FinishedAt.Format(time.RFC3339), s.Statements,
			s.Cost, s.ImprovementPct, s.Structures, speedup)
	}
	fmt.Fprintf(w, "%d session(s)\n", len(sums))
}

// progressSubscribeBuf is each SSE client's event buffer; a client
// slower than the search drops its oldest events rather than stalling
// the publisher (see obs.Progress).
const progressSubscribeBuf = 256

// serveProgress streams live search progress as Server-Sent Events: one
// `event: progress` frame per relaxation iteration, each carrying the
// obs.ProgressEvent JSON and its sequence number as the SSE id. The
// stream ends when the client disconnects, after ?timeout= (a Go
// duration), or after ?max= events — the bounds make the endpoint
// usable from curl and CI without a watchdog.
func serveProgress(s *Service, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusNotImplemented, ErrorResponse{Error: "streaming unsupported by this connection"})
		return
	}
	var timeout <-chan time.Time
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid timeout: " + v})
			return
		}
		tm := time.NewTimer(d)
		defer tm.Stop()
		timeout = tm.C
	}
	maxEvents := 0
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid max: " + v})
			return
		}
		maxEvents = n
	}

	sub := s.Progress().Subscribe(progressSubscribeBuf)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case <-timeout:
			return
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: progress\nid: %d\ndata: %s\n\n", ev.Seq, data); err != nil {
				return
			}
			flusher.Flush()
			sent++
			if maxEvents > 0 && sent >= maxEvents {
				return
			}
		}
	}
}

// writeNoData is the uniform "no data yet" answer of read endpoints
// whose payload only exists after a completed retune: 503 with a
// Retry-After hint, so clients and load balancers treat it as
// "not ready", never as "no such route".
func writeNoData(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "5")
	WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: msg})
}

// WantsText reports whether the client asked for the plain-text
// rendering — the uniform ?format=text convention every JSON read
// endpoint honors.
func WantsText(r *http.Request) bool {
	return r.URL.Query().Get("format") == "text"
}

// WantsPrometheus decides the /metrics representation: the text
// exposition is served when the client asks for it explicitly
// (?format=prometheus) or when the Accept header prefers text/plain —
// what a Prometheus scraper sends and a browser does not.
func WantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// WriteJSON answers with status and v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
