package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/sqlx"
	"repro/internal/workloads"
)

// fullShellTerm is the update-shell term of ΔT as boundDelta took it before
// the term became a difference over the lists a transformation changes:
// the statement's whole shell under the relaxed configuration minus the
// whole shell its evaluation recorded. It is the oracle of the tests below.
func fullShellTerm(tn *Tuner) func(*optimizer.BoundQuery, *physical.Configuration, *optimizer.QueryResult) float64 {
	return func(q *optimizer.BoundQuery, cfgAfter *physical.Configuration, res *optimizer.QueryResult) float64 {
		return tn.Opt.UpdateShellCost(q, cfgAfter, res.AffectedRows) - res.UpdateCost
	}
}

// shellStatements is every update statement of the update+view session
// plus a generated all-update workload over the same catalog, so UPDATE,
// INSERT and DELETE each occur on several tables.
func shellStatements(t testing.TB, tn *Tuner) []*optimizer.BoundQuery {
	t.Helper()
	var out []*optimizer.BoundQuery
	for _, tq := range tn.Queries {
		if tq.Bound.IsUpdate() {
			out = append(out, tq.Bound)
		}
	}
	g := workloads.DefaultGenOptions("shell", 11, 40)
	g.UpdateFraction = 1
	w, err := workloads.Generate(tn.DB, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		b, err := optimizer.Bind(tn.DB, q.Stmt)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	kinds := map[sqlx.StmtKind]int{}
	for _, q := range out {
		kinds[q.Kind]++
	}
	for _, k := range []sqlx.StmtKind{sqlx.StmtUpdate, sqlx.StmtInsert, sqlx.StmtDelete} {
		if kinds[k] == 0 {
			t.Fatalf("no statement of kind %d among %d update statements", k, len(out))
		}
	}
	return out
}

// TestUpdateShellDeltaMatchesFullSum drives random chains of Apply,
// AddIndex, RemoveIndex, AddView and RemoveView from the update+view
// session's optimal and base configurations and checks, at every step and
// for every update statement and row count, UpdateShellDelta against the
// difference of the two full shells: within 1e-12 of the two shells' sum,
// and exactly +0 where the step is a transformation that cannot reach the
// statement's table. The chains cover merged views landing on a view the
// configuration already holds under a hand-made name, clustered indexes
// that AddIndex demotes, Required indexes, and views over the updated
// table with and without indexes of their own.
func TestUpdateShellDeltaMatchesFullSum(t *testing.T) {
	tn := benchTuner(t, updViewSeed, 0.35, Options{Parallelism: 1})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	stmts := shellStatements(t, tn)
	opts := tn.enumerateOptions()
	o := tn.Opt
	var tables []string
	for _, tb := range tn.DB.Tables() {
		tables = append(tables, tb.Name)
	}

	var compared, rounded, unreached, twins, demoted, required, bareViews, indexedViews int
	check := func(at string, before, after *physical.Configuration, tr *physical.Transformation) {
		t.Helper()
		for _, q := range stmts {
			for _, cfg := range [2]*physical.Configuration{before, after} {
				for _, v := range cfg.Views() {
					if slices.Contains(v.Tables, q.UpdateTable) {
						if len(cfg.IndexesOn(v.Name)) == 0 {
							bareViews++
						} else {
							indexedViews++
						}
					}
				}
			}
			for _, k := range []float64{0, 1, 37.5, 2500} {
				got := o.UpdateShellDelta(q, physical.RelationsApart(nil, before, after), k)
				sb, sa := o.UpdateShellCost(q, before, k), o.UpdateShellCost(q, after, k)
				if tr != nil && !reachesTable(before, tr, q.UpdateTable) {
					if math.Float64bits(got) != 0 || sa != sb {
						t.Fatalf("%s: %s cannot reach %s, yet the shell delta is %g (full sums %g → %g)", at, tr.ID(), q.SQL, got, sb, sa)
					}
					unreached++
					continue
				}
				if want := sa - sb; math.Abs(got-want) > 1e-12*(sb+sa) {
					t.Fatalf("%s: shell delta of %s at k=%g is %.17g, full sums give %.17g − %.17g = %.17g", at, q.SQL, k, got, sa, sb, want)
				} else if got != want {
					rounded++
				}
				compared++
			}
		}
	}

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		population := []*physical.Configuration{optCfg, tn.Base}
		for step := 0; step < 60; step++ {
			before := population[rng.Intn(len(population))]
			after := before.Clone()
			var tr *physical.Transformation
			op := ""
			switch r := rng.Intn(10); {
			case r < 4:
				op = "Apply"
				if trans := physical.Enumerate(before, opts); len(trans) > 0 {
					tr = trans[rng.Intn(len(trans))]
					after = tr.Apply(before)
				}
			case r < 5:
				// A merge whose merged view the configuration already holds
				// under a hand-made name, with or without an index.
				op = "merge into a twin"
				for _, m := range physical.Enumerate(before, opts) {
					if m.Kind != physical.TransMergeViews || before.ViewBySignature(m.VM.Signature()) != nil {
						continue
					}
					twin := m.VM.Clone()
					twin.Name = "h_" + twin.Name
					withTwin := before.Clone()
					twin = withTwin.AddView(twin)
					if rng.Intn(2) == 0 {
						cols := twin.AllColumnNames()
						withTwin.AddIndex(physical.NewIndex(twin.Name, cols[:1], nil, true))
					}
					before, tr = withTwin, m
					after = m.Apply(before)
					if after.View(twin.Name) == nil || after.View(m.VM.Name) != nil {
						t.Fatalf("seed %d step %d: the merge did not land on the twin", seed, step)
					}
					twins++
					break
				}
			case r < 7:
				op = "AddIndex"
				rels := slices.Clone(tables)
				for _, v := range after.Views() {
					rels = append(rels, v.Name)
				}
				rel := rels[rng.Intn(len(rels))]
				var cols []string
				if v := after.View(rel); v != nil {
					cols = v.AllColumnNames()
				} else {
					cols = tn.DB.Table(rel).ColumnNames()
				}
				pick := func(n int) []string {
					out := make([]string, n)
					for i := range out {
						out[i] = cols[rng.Intn(len(cols))]
					}
					return out
				}
				ix := physical.NewIndex(rel, pick(1+rng.Intn(2)), pick(rng.Intn(3)), rng.Intn(3) == 0)
				ix.Required = rng.Intn(5) == 0
				got := after.AddIndex(ix)
				if ix.Clustered && !got.Clustered {
					demoted++
				}
				if got.Required {
					required++
				}
			case r < 8:
				op = "RemoveIndex"
				if all := after.Indexes(); len(all) > 0 {
					after.RemoveIndex(all[rng.Intn(len(all))].ID())
				}
			case r < 9:
				// A merged view arrives without any index of its own.
				op = "AddView"
				for _, m := range physical.Enumerate(before, opts) {
					if m.Kind == physical.TransMergeViews && before.ViewBySignature(m.VM.Signature()) == nil {
						after.AddView(m.VM)
						break
					}
				}
			default:
				op = "RemoveView"
				if views := after.Views(); len(views) > 0 {
					after.RemoveView(views[rng.Intn(len(views))].Name)
				}
			}
			check(op, before, after, tr)
			population = append(population, after)
			for len(population) > 8 {
				drop := rng.Intn(len(population))
				population = slices.Delete(population, drop, drop+1)
			}
		}
	}
	t.Logf("%d shell deltas compared (%d differ from the full sums by rounding), %d unreached and exactly 0; %d merges into a twin, %d clustered indexes demoted, %d required, views over the updated table seen %d times bare and %d with indexes",
		compared, rounded, unreached, twins, demoted, required, bareViews, indexedViews)
	if compared == 0 || unreached == 0 || twins == 0 || demoted == 0 || required == 0 || bareViews == 0 || indexedViews == 0 {
		t.Error("the chains missed a case they exist for")
	}
}

// lineageEvaluations is the optimal configuration's evaluation and each
// configuration of the winning lineage, replayed incrementally from the
// one before it as the search evaluated it: the configurations the bounds
// census covers.
func lineageEvaluations(t testing.TB, tn *Tuner, res *Result) []*EvaluatedConfig {
	t.Helper()
	cfgs := []*EvaluatedConfig{res.Optimal}
	for _, step := range res.Lineage {
		prev := cfgs[len(cfgs)-1]
		removedIdx, removedViews := prev.Config.Diff(step.Config)
		ec, ok, err := tn.evalQueries(prev, step.Config, removedIdx, removedViews, 0)
		if err != nil || !ok {
			t.Fatalf("replaying lineage step %d: ok=%v, %v", step.Iteration, ok, err)
		}
		cfgs = append(cfgs, ec)
	}
	return cfgs
}

// TestUpdateShellDeltaCensus replays the update+view bounds census with the
// full-sum shell term. The oracle reproduces the census as it was captured
// before the term changed (updview_bounds_fullshell.golden.jsonl) byte for
// byte, and against it every bound of the census keeps ΔS exactly and ΔT
// within 1e-12 of the configuration's workload cost, kind by kind.
func TestUpdateShellDeltaCensus(t *testing.T) {
	tn, res, _ := runUpdViewSession(t, Options{Parallelism: 1})
	oracle := fullShellTerm(tn)

	tn.fullShell = oracle
	got := bytes.Split(bytes.TrimSpace(jsonLines(t, boundCensus(t, tn, res))), []byte("\n"))
	tn.fullShell = nil
	want := goldenLines(t, "updview_bounds_fullshell.golden.jsonl")
	if len(got) != len(want) {
		t.Fatalf("oracle census has %d lines, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("oracle census line %d diverged:\n got  %s\n want %s", i, got[i], want[i])
		}
	}

	type kindCount struct {
		n, differ int
		maxRel    float64
	}
	kinds := map[string]*kindCount{}
	for _, ec := range lineageEvaluations(t, tn, res) {
		for _, tr := range tn.enum.Enumerate(ec.Config, nil).Trans {
			d, err := tn.boundDelta(0, ec, tr)
			tn.fullShell = oracle
			o, oerr := tn.boundDelta(0, ec, tr)
			tn.fullShell = nil
			if (err == nil) != (oerr == nil) {
				t.Fatalf("%s: error %v, the oracle's %v", tr.ID(), err, oerr)
			}
			kc := kinds[tr.Kind.String()]
			if kc == nil {
				kc = &kindCount{}
				kinds[tr.Kind.String()] = kc
			}
			kc.n++
			if d.DS != o.DS {
				t.Errorf("%s: ΔS %d, the oracle's %d", tr.ID(), d.DS, o.DS)
			}
			if diff := math.Abs(d.DT - o.DT); diff > 1e-12*ec.Cost {
				t.Errorf("%s: ΔT %.17g, the oracle's %.17g (workload cost %g)", tr.ID(), d.DT, o.DT, ec.Cost)
			} else if diff > 0 {
				kc.differ++
				kc.maxRel = max(kc.maxRel, diff/ec.Cost)
			}
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		kc := kinds[k]
		t.Logf("%s: %d bounds, %d ΔT differ from the oracle's by rounding, at most %.2g of the workload cost", k, kc.n, kc.differ, kc.maxRel)
	}
}

var shellSink float64

// BenchmarkUpdateShell times one update-shell term of ΔT, over every pair
// of an update statement and a transformation that reaches its table on
// the update+view session's optimal configuration: the full-sum formula
// and the difference over the lists the transformation changes, collected
// once per transformation as its bound collects them.
func BenchmarkUpdateShell(b *testing.B) {
	tn := benchTuner(b, updViewSeed, 0.35, Options{Parallelism: 1})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		b.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		b.Fatal(err)
	}
	type term struct {
		q     *optimizer.BoundQuery
		after *physical.Configuration
		apart []physical.ListApart
		res   *optimizer.QueryResult
	}
	var terms []term
	for _, tr := range physical.Enumerate(optCfg, tn.enumerateOptions()) {
		after := tr.Apply(optCfg)
		apart := physical.RelationsApart(nil, optCfg, after)
		for i, tq := range tn.Queries {
			if tq.Bound.IsUpdate() && reachesTable(optCfg, tr, tq.Bound.UpdateTable) {
				terms = append(terms, term{tq.Bound, after, apart, ec.Results[i]})
			}
		}
	}
	if len(terms) == 0 {
		b.Fatal("no transformation reaches an update statement")
	}
	full := fullShellTerm(tn)
	b.Run("full-sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tm := terms[i%len(terms)]
			shellSink = full(tm.q, tm.after, tm.res)
		}
	})
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tm := terms[i%len(terms)]
			shellSink = tn.Opt.UpdateShellDelta(tm.q, tm.apart, tm.res.AffectedRows)
		}
	})
}
