package obs

import (
	"fmt"
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

// Recorder is the bounded session history. With a path it persists
// each record as one JSONL line and reloads the retained tail on
// construction, so the history survives daemon restarts; with an empty
// path it is memory-only. Retention, torn-line tolerance and compaction
// are the store's (see jsonlStore): the newest `limit` sessions are kept
// and served. A nil *Recorder is a valid no-op, the same contract as
// Tracer/Profiler.
type Recorder struct {
	mu       sync.Mutex
	idPrefix string
	nextSeq  int
	log      *jsonlStore[SessionRecord]
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
	r := &Recorder{idPrefix: idPrefix, nextSeq: 1}
	log, err := openStore(path, limit, r.recoverSeq)
	if err != nil {
		return nil, err
	}
	r.log = log
	return r, nil
}

// recoverSeq moves the ID sequence past a persisted session's, so IDs
// stay monotonic across restarts.
func (r *Recorder) recoverSeq(rec *SessionRecord) {
	var seq int
	id, hasPrefix := strings.CutPrefix(rec.ID, r.idPrefix)
	if _, err := fmt.Sscanf(id, "s-%d", &seq); hasPrefix && err == nil && seq >= r.nextSeq {
		r.nextSeq = seq + 1
	}
}

// NewSessionID reserves the next session identifier ("s-000001", ...,
// with the recorder's ID prefix prepended when one was configured).
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
	return r.log.append(&cp)
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
	for i, rec := range r.log.recs {
		if rec.ID != id {
			continue
		}
		cp := *rec
		fn(&cp)
		r.log.recs[i] = &cp
		return true, r.log.rewrite()
	}
	return false, nil
}

// Get returns the record with the given ID, or nil.
func (r *Recorder) Get(id string) *SessionRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := r.log.recs
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].ID == id {
			return recs[i]
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
	return r.log.newest(0)
}

// Summaries returns the retained records' list views, oldest first.
func (r *Recorder) Summaries() []SessionSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SessionSummary, len(r.log.recs))
	for i, rec := range r.log.recs {
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
	return len(r.log.recs)
}

// Close releases the underlying file, if any.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.close()
}
