// Package replay is the ground-truth harness: it materializes a
// recommended configuration's structures in the in-repo storage engine
// at sampled scale, replays the tuning workload through the executor
// for real, and scores the optimizer's estimates against measured wall
// time, rows scanned, and structure bytes.
//
// The replay is a measurement layer only — it never feeds measurements
// back into the search or adjusts penalty bounds. Its output is an
// obs.GroundTruthReport, which obs.CalibrateGrounded folds into the
// calibration report as a second, execution-grounded sample stream.
//
// Scope notes: the executor answers every statement from base tables
// (materialized views contribute to structure-byte accounting but are
// not used as access paths), and updates are skipped — the executor
// runs SELECTs. Measured speedups therefore reflect index access-path
// gains, which is exactly the part of the cost model the §3.3.2 bounds
// rank candidates by.
package replay

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/workloads"
)

// SchemaVersion identifies the GroundTruthReport layout produced by Run.
const SchemaVersion = 1

// Source lazily builds the replay substrate: a catalog whose statistics
// describe the materialized rows, and a store holding those rows. The
// service keeps one per tenant and builds it on first use, so a server
// that never replays never pays for data generation.
type Source struct {
	Build func() (*catalog.Database, *exec.Store, error)
}

// Options tune a replay run. The zero value is usable.
type Options struct {
	// Repetitions is how many times each statement runs per
	// configuration; the minimum wall time is kept (the standard
	// noise-rejection estimator for short deterministic work).
	// Default 3.
	Repetitions int
	// MaxLineageSteps caps how many intermediate lineage configurations
	// are replayed between baseline and recommendation (evenly sampled;
	// the recommendation itself is always replayed). Default 6.
	MaxLineageSteps int
	// MaxStatements caps the SELECT statements replayed per
	// configuration. Default 64.
	MaxStatements int
	// Trace, when non-nil, receives a span per replayed statement.
	Trace *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Repetitions <= 0 {
		o.Repetitions = 3
	}
	if o.MaxLineageSteps <= 0 {
		o.MaxLineageSteps = 6
	}
	if o.MaxStatements <= 0 {
		o.MaxStatements = 64
	}
	return o
}

// point is one configuration scheduled for replay.
type point struct {
	label     string
	kind      string
	iteration int
	// adjacent marks a point whose predecessor in the replay schedule is
	// its direct parent in the lineage, so the measured delta between
	// them is attributable to this point's single transformation kind.
	adjacent bool
	cfg      *physical.Configuration
}

// Run replays a tuning result against materialized data. db and store
// must come from the same materialization (datagen.TPCHData and
// friends) so the catalog statistics describe the rows the executor
// scans; res is the result whose recommendation is being scored.
//
// The replayed configurations are: the empty baseline, up to
// MaxLineageSteps evenly-sampled points of the winning relaxation
// lineage, and the recommendation. The store's index registrations are
// mutated during the run and cleared before returning.
func Run(db *catalog.Database, store *exec.Store, queries []*workloads.Query, res *core.Result, opts Options) (*obs.GroundTruthReport, error) {
	if db == nil || store == nil {
		return nil, errors.New("replay: nil database or store")
	}
	if res == nil || res.Best == nil {
		return nil, errors.New("replay: result has no recommendation")
	}
	opts = opts.withDefaults()
	start := time.Now()
	defer store.ResetIndexes()

	stmts, skipped, err := bindStatements(db, queries, opts.MaxStatements)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, errors.New("replay: workload has no replayable SELECT statements")
	}

	opt := optimizer.New(db)
	points := schedule(res, opts.MaxLineageSteps)
	gt := &obs.GroundTruthReport{
		SchemaVersion:  SchemaVersion,
		Database:       db.Name,
		TotalRows:      db.TotalRows(),
		TotalBytes:     db.DataSize(),
		Statements:     len(stmts),
		SkippedUpdates: skipped,
		Repetitions:    opts.Repetitions,
	}
	for _, p := range points {
		rc, err := measure(opt, store, stmts, p, opts)
		if err != nil {
			return nil, err
		}
		gt.Configs = append(gt.Configs, rc)
	}
	score(gt, points)
	gt.DurationNanos = time.Since(start).Nanoseconds()
	return gt, nil
}

type boundStmt struct {
	id     string
	weight float64
	q      *optimizer.BoundQuery
}

// bindStatements re-binds the workload's SELECTs against the replay
// catalog (the tuning catalog may describe a different scale factor).
func bindStatements(db *catalog.Database, queries []*workloads.Query, maxStmts int) ([]boundStmt, int, error) {
	var stmts []boundStmt
	skipped := 0
	for _, q := range queries {
		if q.IsUpdate() {
			skipped++
			continue
		}
		if len(stmts) >= maxStmts {
			continue
		}
		bq, err := core.BindQuery(db, q)
		if err != nil {
			return nil, 0, fmt.Errorf("replay: bind %s: %w", q.ID, err)
		}
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		stmts = append(stmts, boundStmt{id: q.ID, weight: w, q: bq})
	}
	return stmts, skipped, nil
}

// schedule picks the configurations to replay: baseline, evenly-sampled
// lineage points, recommendation.
func schedule(res *core.Result, maxSteps int) []point {
	points := []point{{label: "baseline", cfg: physical.NewConfiguration()}}
	lineage := res.Lineage
	// The lineage's last entry is the recommendation itself; sample the
	// interior and append the recommendation explicitly so it is always
	// present (also when the lineage is empty).
	var interior []core.LineageStep
	if len(lineage) > 1 {
		interior = lineage[:len(lineage)-1]
	}
	prevIdx := -1 // lineage index of the previously scheduled point
	for _, i := range sampleIndices(len(interior), maxSteps) {
		s := interior[i]
		points = append(points, point{
			label:     fmt.Sprintf("step-%d", s.Iteration),
			kind:      s.Kind,
			iteration: s.Iteration,
			adjacent:  i == prevIdx+1,
			cfg:       s.Config,
		})
		prevIdx = i
	}
	rec := point{label: "recommended", cfg: res.Best.Config}
	if n := len(lineage); n > 0 {
		last := lineage[n-1]
		rec.kind, rec.iteration = last.Kind, last.Iteration
		rec.adjacent = prevIdx == n-2
	}
	points = append(points, rec)
	return points
}

// sampleIndices returns up to max indices of [0,n), evenly spread and
// always including the last when any are returned.
func sampleIndices(n, max int) []int {
	if n <= 0 || max <= 0 {
		return nil
	}
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, max)
	prev := -1
	for i := 0; i < max; i++ {
		idx := ((i + 1) * n / max) - 1
		if idx > prev {
			out = append(out, idx)
			prev = idx
		}
	}
	return out
}

// measure replays every statement under one configuration.
func measure(opt *optimizer.Optimizer, store *exec.Store, stmts []boundStmt, p point, opts Options) (obs.ReplayConfig, error) {
	store.ResetIndexes()
	store.AddConfigIndexes(p.cfg)
	rc := obs.ReplayConfig{
		Label:          p.label,
		Kind:           p.kind,
		Iteration:      p.iteration,
		Indexes:        p.cfg.NumIndexes(),
		Views:          p.cfg.NumViews(),
		StructureBytes: opt.Sizer().ConfigBytes(p.cfg),
	}
	// Per-statement breakdowns are kept only for the endpoint
	// configurations; interior lineage points contribute aggregates.
	keepPerStmt := p.label == "baseline" || p.label == "recommended"
	var measured float64
	for _, st := range stmts {
		est := 0.0
		if plan, err := opt.Optimize(st.q, p.cfg); err == nil {
			est = plan.Cost.Total()
		}
		end := opts.Trace.Span("replay-stmt", obs.F{
			"config": p.label, "stmt": st.id, "est_cost": est,
		})
		best := int64(math.MaxInt64)
		var stats exec.ExecStats
		resultRows := 0
		for rep := 0; rep < opts.Repetitions; rep++ {
			t0 := time.Now()
			rel, s, err := exec.ExecuteQuery(store, st.q)
			d := time.Since(t0).Nanoseconds()
			if err != nil {
				end(obs.F{"error": err.Error()})
				return rc, fmt.Errorf("replay: execute %s under %s: %w", st.id, p.label, err)
			}
			if d < best {
				best = d
			}
			if rep == 0 {
				stats = s
				resultRows = rel.Len()
			}
		}
		end(obs.F{
			"wall_ns": best, "rows_scanned": stats.RowsScanned,
			"index_seeks": stats.IndexSeeks, "result_rows": resultRows,
		})
		rc.EstCost += est * st.weight
		measured += float64(best) * st.weight
		rc.RowsScanned += stats.RowsScanned
		rc.PagesTouched += stats.PagesTouched
		rc.IndexSeeks += stats.IndexSeeks
		rc.TableScans += stats.TableScans
		if keepPerStmt {
			rc.PerStatement = append(rc.PerStatement, obs.ReplayStatement{
				ID: st.id, Weight: st.weight, EstCost: est,
				MeasuredNanos: best, RowsScanned: stats.RowsScanned,
				ResultRows: resultRows,
			})
		}
	}
	rc.MeasuredNanos = int64(measured)
	return rc, nil
}

// score derives the calibration stream and summary statistics from the
// measured configurations.
func score(gt *obs.GroundTruthReport, points []point) {
	base, rec := gt.Baseline(), gt.Recommended()
	if base == nil || rec == nil {
		return
	}
	if rec.MeasuredNanos > 0 {
		gt.SpeedupMeasured = float64(base.MeasuredNanos) / float64(rec.MeasuredNanos)
	}
	if rec.EstCost > 0 {
		gt.SpeedupEstimated = base.EstCost / rec.EstCost
	}
	est := make([]float64, len(gt.Configs))
	wall := make([]float64, len(gt.Configs))
	for i := range gt.Configs {
		est[i] = gt.Configs[i].EstCost
		wall[i] = float64(gt.Configs[i].MeasuredNanos)
	}
	// ρ = 1 means estimated cost orders the configurations exactly as
	// measured wall time does (cheaper estimate ⇒ faster execution).
	gt.RankCorrelation = obs.Spearman(est, wall)

	// The execution-grounded calibration stream: for each replayed
	// lineage step whose predecessor in the schedule is its direct
	// lineage parent, pair the step's estimated ΔT with the measured ΔT
	// normalized to the optimizer's cost unit via the baseline ratio
	// (nanos per cost unit). Non-adjacent pairs span several
	// transformations and are attributed to kind "multi".
	if base.MeasuredNanos <= 0 || base.EstCost <= 0 {
		return
	}
	scale := float64(base.MeasuredNanos) / base.EstCost
	for i := 2; i < len(gt.Configs); i++ {
		prev, cur := &gt.Configs[i-1], &gt.Configs[i]
		kind := cur.Kind
		if !points[i].adjacent || kind == "" {
			kind = "multi"
		}
		gt.Samples = append(gt.Samples, obs.CalibSample{
			Kind:       kind,
			EstDT:      cur.EstCost - prev.EstCost,
			RealizedDT: float64(cur.MeasuredNanos-prev.MeasuredNanos) / scale,
		})
	}
}
