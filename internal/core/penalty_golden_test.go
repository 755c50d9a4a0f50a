package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// benchWorkload generates the seeded 20-statement workload over the bench
// catalog that the penalty-path contract tests tune.
func benchWorkload(t testing.TB, seed int64, updateFraction float64) (*catalog.Database, *workloads.Workload) {
	t.Helper()
	db := datagen.Bench(0.01)
	g := workloads.DefaultGenOptions("x", seed, 20)
	g.UpdateFraction = updateFraction
	w, err := workloads.Generate(db, g)
	if err != nil {
		t.Fatal(err)
	}
	return db, w
}

// thirdBudget is base + (optimal − base)/3: a third of the way from the
// existing design to the §2 optimal configuration.
func thirdBudget(t testing.TB, db *catalog.Database, w *workloads.Workload, noViews bool) int64 {
	t.Helper()
	probe, err := NewTuner(db, w, Options{NoViews: noViews, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	sz := probe.Opt.Sizer()
	base := sz.ConfigBytes(probe.Base)
	return base + (sz.ConfigBytes(optCfg)-base)/3
}

// benchTuner builds a session over the seeded bench workload at a third
// budget; opts supplies everything but the budget.
func benchTuner(t testing.TB, seed int64, updateFraction float64, opts Options) *Tuner {
	t.Helper()
	db, w := benchWorkload(t, seed, updateFraction)
	opts.SpaceBudget = thirdBudget(t, db, w, opts.NoViews)
	tn, err := NewTuner(db, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// updViewSeed, with 35 % updates and views on, gives 7 update statements
// and 13 materialized views in the optimal configuration, and a search
// that accepts index removals, a merge, a prefix and three view removals:
// the session no other committed test pins a ranked list for.
const updViewSeed = 3

// runUpdViewSession runs the update+view golden session (60 iterations)
// with a memory sink and whatever else opts carries.
func runUpdViewSession(t testing.TB, opts Options) (*Tuner, *Result, []obs.Event) {
	t.Helper()
	mem := obs.NewMemorySink()
	opts.MaxIterations = 60
	opts.Trace = obs.NewTracer(mem)
	tn := benchTuner(t, updViewSeed, 0.35, opts)
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	return tn, res, mem.Events()
}

// digestLong is goldenFields for nested values too: view-transformation
// IDs carry whole view signatures and sit inside the candidate lists.
func digestLong(v any) any {
	switch x := v.(type) {
	case string:
		if len(x) > 96 {
			sum := sha256.Sum256([]byte(x))
			return "sha256:" + hex.EncodeToString(sum[:8])
		}
	case []any:
		for i := range x {
			x[i] = digestLong(x[i])
		}
	case map[string]any:
		for k := range x {
			x[k] = digestLong(x[k])
		}
	}
	return v
}

// traceGoldenLine is one event as the update+view trace golden stores it.
type traceGoldenLine struct {
	Type   string         `json:"type"`
	Phase  string         `json:"phase,omitempty"`
	Fields map[string]any `json:"fields,omitempty"`
}

func traceGolden(t *testing.T, ev obs.Event) traceGoldenLine {
	t.Helper()
	line := traceGoldenLine{Type: ev.Type, Phase: ev.Phase}
	if len(ev.Fields) > 0 {
		line.Fields = digestLong(goldenFields(t, ev.Fields)).(map[string]any)
	}
	return line
}

// boundCensusLine is every §3.3.2 bound of one configuration, digested
// per transformation kind: ΔT as bits, ΔS and the error of each
// candidate in enumeration order.
type boundCensusLine struct {
	Config string                    `json:"config"`
	Trans  int                       `json:"trans"`
	Errors int                       `json:"errors"`
	ByKind map[string]boundKindCount `json:"by_kind"`
}

type boundKindCount struct {
	N      int    `json:"n"`
	SHA256 string `json:"sha256"`
}

// sessionSummaryLine closes the census golden with the facts of the
// session no trace event carries.
type sessionSummaryLine struct {
	TransCensus                         []int
	OptimizerCalls                      int64
	IndexRequests, ViewRequests         int64
	PlansReused, PlansReoptimized       int64
	DuplicateSkips, ShortcutPrunes      int64
	Iterations, Frontier, LineageLength int
	BestCostBits                        uint64
	BestSize                            int64
}

// boundCensus bounds every transformation of the optimal configuration
// and of each configuration along the winning lineage, on the evaluations
// the search ranked from: each step is replayed incrementally from the one
// before it, starting at res.Optimal, as the search evaluated it.
func boundCensus(t testing.TB, tn *Tuner, res *Result) []any {
	t.Helper()
	var out []any
	for _, ec := range lineageEvaluations(t, tn, res) {
		sum := sha256.Sum256([]byte(ec.Config.Fingerprint()))
		line := boundCensusLine{Config: hex.EncodeToString(sum[:8]), ByKind: map[string]boundKindCount{}}
		hashes := map[string]*bytes.Buffer{}
		for _, tr := range tn.enum.Enumerate(ec.Config, nil).Trans {
			d, err := tn.boundDelta(0, ec, tr)
			errText := ""
			if err != nil {
				errText = err.Error()
				line.Errors++
			}
			kind := tr.Kind.String()
			if hashes[kind] == nil {
				hashes[kind] = &bytes.Buffer{}
			}
			fmt.Fprintf(hashes[kind], "%s\x00%016x\x00%d\x00%s\n", tr.ID(), math.Float64bits(d.DT), d.DS, errText)
			kc := line.ByKind[kind]
			kc.N++
			line.ByKind[kind] = kc
			line.Trans++
		}
		kinds := make([]string, 0, len(hashes))
		for k := range hashes {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			h := sha256.Sum256(hashes[k].Bytes())
			kc := line.ByKind[k]
			kc.SHA256 = hex.EncodeToString(h[:])
			line.ByKind[k] = kc
		}
		out = append(out, line)
	}
	out = append(out, sessionSummaryLine{
		TransCensus:    res.TransCensus,
		OptimizerCalls: res.OptimizerCalls, IndexRequests: res.IndexRequests, ViewRequests: res.ViewRequests,
		PlansReused: res.Economy.PlansReused, PlansReoptimized: res.Economy.PlansReoptimized,
		DuplicateSkips: res.Economy.DuplicateSkips, ShortcutPrunes: res.Economy.ShortcutPrunes,
		Iterations: res.Iterations, Frontier: len(res.Frontier), LineageLength: len(res.Lineage),
		BestCostBits: math.Float64bits(res.Best.Cost), BestSize: res.Best.SizeBytes,
	})
	return out
}

// goldenLines reads a line-per-record golden from testdata/.
func goldenLines(t *testing.T, name string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
}

// jsonLines renders one JSON document per line.
func jsonLines(t testing.TB, docs []any) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, d := range docs {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// dtDerived are the trace fields computed from §3.3.2 ΔT bounds. The
// update-shell term of ΔT re-associates a float sum (DESIGN §13), so these
// match the golden within dtTolerance, relative; inside a ranked list
// ("top") the candidates' "dt" and "penalty" do.
var dtDerived = map[string]bool{"penalty": true, "est_dt": true, "tightness": true}

const dtTolerance = 1e-12

// goldenFieldMatches compares one trace field with its golden value:
// exactly, except for what dtDerived names.
func goldenFieldMatches(k string, got, want any) bool {
	closeTo := func(got, want any) bool {
		g, ok1 := got.(float64)
		w, ok2 := want.(float64)
		return ok1 && ok2 && math.Abs(g-w) <= dtTolerance*math.Abs(w)
	}
	switch {
	case dtDerived[k]:
		return closeTo(got, want)
	case k == "top":
		g, ok1 := got.([]any)
		w, ok2 := want.([]any)
		if !ok1 || !ok2 || len(g) != len(w) {
			return false
		}
		for i := range w {
			gc, ok1 := g[i].(map[string]any)
			wc, ok2 := w[i].(map[string]any)
			if !ok1 || !ok2 || len(gc) != len(wc) {
				return false
			}
			for f, wv := range wc {
				if f == "dt" || f == "penalty" {
					if !closeTo(gc[f], wv) {
						return false
					}
				} else if !reflect.DeepEqual(gc[f], wv) {
					return false
				}
			}
		}
		return true
	}
	return reflect.DeepEqual(got, want)
}

// TestUpdateViewSessionMatchesParentGoldens is the penalty path's
// contract beside the spine's. The trace golden was captured at the
// commit before penalty ranking became incremental, when every node
// bounded every transformation from scratch: at any Parallelism every
// trace field that existed then keeps its value (every ranked list with
// its ΔT/ΔS/penalty, every apply, skip and eval), the ΔT-derived ones
// within dtTolerance. The census golden holds every bound of the optimal
// configuration and of each configuration of the winning lineage, bit for
// bit, as the update shell is taken now; TestUpdateShellDeltaCensus holds
// it to the census taken with whole shells.
func TestUpdateViewSessionMatchesParentGoldens(t *testing.T) {
	wantTrace := goldenLines(t, "updview_trace.golden.jsonl")
	wantBounds := goldenLines(t, "updview_bounds.golden.jsonl")

	for _, parallelism := range []int{1, 8} {
		tn, res, trace := runUpdViewSession(t, Options{Parallelism: parallelism})
		if len(trace) != len(wantTrace) {
			t.Fatalf("P=%d: %d trace events, golden has %d", parallelism, len(trace), len(wantTrace))
		}
		for i, raw := range wantTrace {
			var want traceGoldenLine
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			got := traceGolden(t, trace[i])
			if got.Type != want.Type || got.Phase != want.Phase {
				t.Fatalf("P=%d: trace event %d is %s/%s, golden has %s/%s", parallelism, i, got.Type, got.Phase, want.Type, want.Phase)
			}
			for k, v := range want.Fields {
				if parallelism > 1 && parallelDependent[k] {
					continue
				}
				if !goldenFieldMatches(k, got.Fields[k], v) {
					t.Errorf("P=%d: trace event %d (%s/%s) field %q = %v, golden has %v", parallelism, i, got.Type, got.Phase, k, got.Fields[k], v)
				}
			}
		}

		gotBounds := bytes.Split(bytes.TrimSpace(jsonLines(t, boundCensus(t, tn, res))), []byte("\n"))
		if len(gotBounds) != len(wantBounds) {
			t.Fatalf("P=%d: bound census has %d lines, golden has %d", parallelism, len(gotBounds), len(wantBounds))
		}
		for i := range wantBounds {
			if !bytes.Equal(gotBounds[i], wantBounds[i]) {
				t.Errorf("P=%d: bound census line %d diverged:\n got  %s\n want %s", parallelism, i, gotBounds[i], wantBounds[i])
			}
		}
	}
}
