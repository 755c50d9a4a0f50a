package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// StructureRecord is one physical structure (index or materialized
// view) in a recorded recommendation.
type StructureRecord struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "index" or "view"
	// SizeBytes is the structure's estimated on-disk size.
	SizeBytes int64 `json:"size_bytes"`
	// CostShare is the weighted workload cost of the statements whose
	// plans use the structure — a rough "how much rides on this" signal
	// for diffing, not an exact marginal benefit.
	CostShare float64 `json:"cost_share,omitempty"`
	// Required marks base structures that the tuner may not drop.
	Required bool `json:"required,omitempty"`
}

// FrontierSample mirrors core.FrontierPoint for persistence (obs cannot
// import core — core imports obs).
type FrontierSample struct {
	Iteration      int     `json:"iteration"`
	SizeBytes      int64   `json:"size_bytes"`
	Cost           float64 `json:"cost"`
	Fits           bool    `json:"fits"`
	Transformation string  `json:"transformation,omitempty"`
	Penalty        float64 `json:"penalty,omitempty"`
}

// ExplainDigest is the compact footprint of a core.ExplainReport kept
// in the session history (the full report is only held for the latest
// session by the service).
type ExplainDigest struct {
	Source string `json:"source"`
	Winner string `json:"winner,omitempty"`
	Steps  int    `json:"steps"`
	// Outcomes counts structure decisions by outcome ("kept",
	// "dropped", "merged", ...).
	Outcomes map[string]int `json:"outcomes,omitempty"`
}

// DriftDigest records the drift assessment that triggered a session —
// the "why did this retune fire" answer the history serves (obs cannot
// import service, so the service projects its DriftReport into this).
type DriftDigest struct {
	ShapeDistance float64 `json:"shape_distance"`
	CostRatio     float64 `json:"cost_ratio,omitempty"`
	Reason        string  `json:"reason,omitempty"`
	// Movers rank the statement signatures whose share movement drove
	// the distance; MoverShare is the fraction of it they explain.
	Movers     []DriftMoverRecord `json:"movers,omitempty"`
	MoverShare float64            `json:"mover_share,omitempty"`
}

// DriftMoverRecord is one signature's contribution to a recorded drift.
type DriftMoverRecord struct {
	Signature     string  `json:"signature"`
	Direction     string  `json:"direction"` // "up", "down", or "churn"
	BaselineShare float64 `json:"baseline_share"`
	CurrentShare  float64 `json:"current_share"`
	Delta         float64 `json:"delta"`
	DistanceShare float64 `json:"distance_share"`
}

// CalibrationDigest summarizes a CalibrationReport for the history.
type CalibrationDigest struct {
	Samples         int     `json:"samples"`
	MeanTightness   float64 `json:"mean_tightness,omitempty"`
	RankCorrelation float64 `json:"rank_correlation,omitempty"`
	BoundViolations int     `json:"bound_violations"`
}

// SessionRecord is the flight-recorder entry for one completed tuning
// session: the summary an operator needs to audit what the tuner did
// and why the recommendation moved.
type SessionRecord struct {
	ID         string    `json:"id"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	// Tenant attributes the session to a fleet tenant (empty outside
	// fleet deployments), so shared or aggregated histories stay
	// disambiguated when several services record side by side.
	Tenant string `json:"tenant,omitempty"`
	// Trigger says what started the session: "manual", "auto" (drift),
	// or "cli".
	Trigger string `json:"trigger,omitempty"`
	// WarmStart reports whether the search was seeded with the previous
	// recommendation.
	WarmStart bool `json:"warm_start,omitempty"`
	// Statements and TotalWeight describe the workload snapshot tuned.
	Statements  int     `json:"statements"`
	TotalWeight float64 `json:"total_weight,omitempty"`

	SpaceBudgetBytes int64 `json:"space_budget_bytes"`
	// InitialCost / OptimalCost / Cost are the workload's estimated
	// total time under the initial configuration, the unconstrained
	// optimum, and the recommendation.
	InitialCost    float64 `json:"initial_cost"`
	OptimalCost    float64 `json:"optimal_cost"`
	Cost           float64 `json:"cost"`
	ImprovementPct float64 `json:"improvement_pct"`
	SizeBytes      int64   `json:"size_bytes"`

	Iterations      int   `json:"iterations"`
	OptimizerCalls  int64 `json:"optimizer_calls"`
	ElapsedMillis   int64 `json:"elapsed_millis"`
	ParallelWorkers int   `json:"parallel_workers,omitempty"`

	Structures  []StructureRecord  `json:"structures"`
	Frontier    []FrontierSample   `json:"frontier"`
	Explain     *ExplainDigest     `json:"explain,omitempty"`
	Calibration *CalibrationDigest `json:"calibration,omitempty"`
	// Drift is the assessment that fired this session, present only on
	// drift-triggered ("auto") retunes.
	Drift *DriftDigest `json:"drift,omitempty"`
	// GroundTruth is the execution-backed replay of this session's
	// recommendation, present only when the service ran one.
	GroundTruth *GroundTruthReport `json:"ground_truth,omitempty"`
}

// SessionSummary is the list-view projection of a SessionRecord.
type SessionSummary struct {
	ID               string    `json:"id"`
	Tenant           string    `json:"tenant,omitempty"`
	StartedAt        time.Time `json:"started_at"`
	FinishedAt       time.Time `json:"finished_at"`
	Trigger          string    `json:"trigger,omitempty"`
	Statements       int       `json:"statements"`
	SpaceBudgetBytes int64     `json:"space_budget_bytes"`
	Cost             float64   `json:"cost"`
	ImprovementPct   float64   `json:"improvement_pct"`
	SizeBytes        int64     `json:"size_bytes"`
	Iterations       int       `json:"iterations"`
	Structures       int       `json:"structures"`
	FrontierPoints   int       `json:"frontier_points"`
	// MeasuredSpeedup is the replay's baseline/recommended measured wall
	// ratio (0 when the session had no ground-truth replay).
	MeasuredSpeedup float64 `json:"measured_speedup,omitempty"`
	// DriftReason and DriftMovers surface why a drift-triggered session
	// fired (empty/0 for manual and CLI sessions).
	DriftReason string `json:"drift_reason,omitempty"`
	DriftMovers int    `json:"drift_movers,omitempty"`
}

// Summary projects the record into its list view.
func (r *SessionRecord) Summary() SessionSummary {
	s := SessionSummary{
		ID:               r.ID,
		Tenant:           r.Tenant,
		StartedAt:        r.StartedAt,
		FinishedAt:       r.FinishedAt,
		Trigger:          r.Trigger,
		Statements:       r.Statements,
		SpaceBudgetBytes: r.SpaceBudgetBytes,
		Cost:             r.Cost,
		ImprovementPct:   r.ImprovementPct,
		SizeBytes:        r.SizeBytes,
		Iterations:       r.Iterations,
		Structures:       len(r.Structures),
		FrontierPoints:   len(r.Frontier),
		MeasuredSpeedup:  r.measuredSpeedup(),
	}
	if r.Drift != nil {
		s.DriftReason = r.Drift.Reason
		s.DriftMovers = len(r.Drift.Movers)
	}
	return s
}

func (r *SessionRecord) measuredSpeedup() float64 {
	if r.GroundTruth == nil {
		return 0
	}
	return r.GroundTruth.SpeedupMeasured
}

// DefaultRecorderLimit bounds how many sessions a recorder retains when
// the caller doesn't choose a limit.
const DefaultRecorderLimit = 256

// Recorder is the bounded session history store. With a path it
// persists each record as one JSONL line and reloads the retained tail
// on construction, so the history survives daemon restarts; with an
// empty path it is memory-only. A nil *Recorder is a valid no-op, the
// same contract as Tracer/Profiler.
//
// Retention is simple and predictable: the newest `limit` sessions are
// kept in memory and served; the on-disk file is compacted (rewritten
// to exactly the retained tail) whenever it grows past 2×limit lines,
// so the file stays O(limit) without rewriting on every record.
type Recorder struct {
	mu        sync.Mutex
	path      string
	limit     int
	idPrefix  string
	sessions  []*SessionRecord
	nextSeq   int
	f         *os.File
	fileLines int
	// encBuf/enc are the reused JSONL encode buffer for appends: session
	// records marshal to kilobytes, so the buffer warms up once and
	// subsequent Record calls encode without re-allocating a line each
	// time. Guarded by mu like everything else.
	encBuf bytes.Buffer
	enc    *json.Encoder
}

// NewRecorder opens (or creates) a session history. path == "" keeps
// the history in memory only; limit <= 0 takes DefaultRecorderLimit.
// Corrupt lines in an existing file are skipped, not fatal: a partial
// history beats a daemon that won't boot.
func NewRecorder(path string, limit int) (*Recorder, error) {
	return NewRecorderPrefix(path, limit, "")
}

// NewRecorderPrefix is NewRecorder with a session-ID prefix: IDs become
// "<prefix>s-000001", ... . Distinct prefixes make IDs globally unique
// when several recorders coexist in one process — the fleet case, where
// each tenant records its own history ("t1-s-000001" never collides
// with "t2-s-000001") and fleet-wide views can aggregate them without
// ambiguity.
func NewRecorderPrefix(path string, limit int, idPrefix string) (*Recorder, error) {
	if limit <= 0 {
		limit = DefaultRecorderLimit
	}
	r := &Recorder{path: path, limit: limit, idPrefix: idPrefix, nextSeq: 1}
	if path == "" {
		return r, nil
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("obs: recorder dir: %w", err)
		}
	}
	if err := r.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: recorder open: %w", err)
	}
	r.f = f
	return r, nil
}

// load reads the retained tail of an existing history file.
func (r *Recorder) load() error {
	f, err := os.Open(r.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("obs: recorder load: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		r.fileLines++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec SessionRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // skip corrupt lines
		}
		r.sessions = append(r.sessions, &rec)
		var seq int
		id, hasPrefix := strings.CutPrefix(rec.ID, r.idPrefix)
		if _, err := fmt.Sscanf(id, "s-%d", &seq); hasPrefix && err == nil && seq >= r.nextSeq {
			r.nextSeq = seq + 1
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: recorder load: %w", err)
	}
	if len(r.sessions) > r.limit {
		r.sessions = append([]*SessionRecord(nil), r.sessions[len(r.sessions)-r.limit:]...)
	}
	return nil
}

// NewSessionID reserves the next session identifier ("s-000001", ...,
// with the recorder's ID prefix prepended when one was configured).
// IDs stay monotonic across restarts because load recovers the highest
// persisted sequence number.
func (r *Recorder) NewSessionID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := fmt.Sprintf("%ss-%06d", r.idPrefix, r.nextSeq)
	r.nextSeq++
	return id
}

// Record appends a completed session, trims retention, and persists.
// Persistence errors are returned but the in-memory history is updated
// regardless, so a full disk degrades to memory-only operation.
func (r *Recorder) Record(rec *SessionRecord) error {
	if r == nil || rec == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := *rec
	r.sessions = append(r.sessions, &cp)
	if len(r.sessions) > r.limit {
		r.sessions = append([]*SessionRecord(nil), r.sessions[len(r.sessions)-r.limit:]...)
	}
	if r.f == nil {
		return nil
	}
	if r.enc == nil {
		r.enc = json.NewEncoder(&r.encBuf)
	}
	r.encBuf.Reset()
	if err := r.enc.Encode(&cp); err != nil {
		return fmt.Errorf("obs: recorder marshal: %w", err)
	}
	if _, err := r.f.Write(r.encBuf.Bytes()); err != nil {
		return fmt.Errorf("obs: recorder append: %w", err)
	}
	r.fileLines++
	if r.fileLines > 2*r.limit {
		return r.compactLocked()
	}
	return nil
}

// Amend replaces the retained record with the given ID by a copy fn has
// modified, then rewrites the persisted tail so the file matches memory.
// Readers holding the old pointer keep seeing the pre-amend record (no
// in-place mutation). Returns false when the ID is not retained. Used by
// on-demand ground-truth replays to attach measurements to an
// already-recorded session.
func (r *Recorder) Amend(id string, fn func(*SessionRecord)) (bool, error) {
	if r == nil || fn == nil {
		return false, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rec := range r.sessions {
		if rec.ID != id {
			continue
		}
		cp := *rec
		fn(&cp)
		r.sessions[i] = &cp
		if r.f == nil {
			return true, nil
		}
		return true, r.compactLocked()
	}
	return false, nil
}

// compactLocked rewrites the history file to exactly the retained tail.
// Callers hold r.mu.
func (r *Recorder) compactLocked() error {
	tmp := r.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("obs: recorder compact: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range r.sessions {
		// Encode appends the JSONL newline itself and streams into the
		// buffered writer, so compaction allocates no per-record line.
		if err := enc.Encode(rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("obs: recorder compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("obs: recorder compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: recorder compact: %w", err)
	}
	if err := os.Rename(tmp, r.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: recorder compact: %w", err)
	}
	r.f.Close()
	nf, err := os.OpenFile(r.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		r.f = nil
		return fmt.Errorf("obs: recorder reopen: %w", err)
	}
	r.f = nf
	r.fileLines = len(r.sessions)
	return nil
}

// Get returns the record with the given ID, or nil.
func (r *Recorder) Get(id string) *SessionRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.sessions) - 1; i >= 0; i-- {
		if r.sessions[i].ID == id {
			return r.sessions[i]
		}
	}
	return nil
}

// Sessions returns the retained records, oldest first.
func (r *Recorder) Sessions() []*SessionRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*SessionRecord(nil), r.sessions...)
}

// Summaries returns the retained records' list views, oldest first.
func (r *Recorder) Summaries() []SessionSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SessionSummary, len(r.sessions))
	for i, rec := range r.sessions {
		out[i] = rec.Summary()
	}
	return out
}

// Len is the number of retained sessions.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Close releases the underlying file, if any.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
