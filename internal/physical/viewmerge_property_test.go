package physical

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sqlx"
)

// randomViewOver builds a random view over tables {r,s} with random
// ranges, optional grouping, and the standard join.
func randomViewOver(r *rand.Rand) *View {
	v := &View{
		Tables: []string{"r", "s"},
		Joins:  []JoinPred{NewJoinPred(col("r", "x"), col("s", "y"))},
	}
	cols := []sqlx.ColRef{col("r", "a"), col("r", "b"), col("s", "c"), col("s", "d")}
	// Random ranges on a subset of columns.
	for _, c := range cols[:2+r.Intn(2)] {
		if r.Intn(2) == 0 {
			continue
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		if r.Intn(2) == 0 {
			lo = float64(r.Intn(50))
		}
		if r.Intn(2) == 0 {
			hi = lo + 1 + float64(r.Intn(50))
			if math.IsInf(lo, -1) {
				hi = float64(r.Intn(100))
			}
		}
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			continue
		}
		v.Ranges = append(v.Ranges, RangeCond{Col: c, Iv: Interval{Lo: lo, Hi: hi, LoIncl: true}})
	}
	// Outputs: all base columns plus join columns.
	for _, c := range append(cols, col("r", "x"), col("s", "y")) {
		v.Cols = append(v.Cols, BaseViewColumn(c, 4))
	}
	if r.Intn(2) == 0 {
		v.GroupBy = []sqlx.ColRef{cols[r.Intn(2)]}
		// Keep the view well-formed: every output base column grouped.
		for _, c := range v.Cols {
			if !slices.Contains(v.GroupBy, c.Source) {
				v.GroupBy = append(v.GroupBy, c.Source)
			}
		}
		v.Cols = append(v.Cols, AggViewColumn(sqlx.AggSum, cols[2], 8))
	}
	v.Name = ViewNameFor(v)
	return v
}

// TestMergedViewAlwaysMatchesInputs is the §3.1.2 guarantee the bound
// machinery relies on: "we require that VM be matched whenever either V1
// or V2 are" — checked on randomized view pairs using the inputs' own
// definitions as query blocks.
func TestMergedViewAlwaysMatchesInputs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomViewOver(r))
		vals[1] = reflect.ValueOf(randomViewOver(r))
	}}
	if err := quick.Check(func(v1, v2 *View) bool {
		vm := MergeViews(v1, v2, func(sqlx.ColRef) int { return 4 })
		if vm == nil {
			return false // same table set: merging must be defined
		}
		vm.EstRows = 1000
		return MatchView(v1, vm) != nil && MatchView(v2, vm) != nil
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestMergeViewsCommutesOnSignature: merging is symmetric up to the
// definition signature.
func TestMergeViewsCommutesOnSignature(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomViewOver(r))
		vals[1] = reflect.ValueOf(randomViewOver(r))
	}}
	if err := quick.Check(func(v1, v2 *View) bool {
		a := MergeViews(v1, v2, func(sqlx.ColRef) int { return 4 })
		b := MergeViews(v2, v1, func(sqlx.ColRef) int { return 4 })
		if a == nil || b == nil {
			return a == nil && b == nil
		}
		return a.Signature() == b.Signature()
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestMergeViewsIdempotentOnEqualInputs: merging a view with itself
// yields an equivalent definition.
func TestMergeViewsIdempotentOnEqualInputs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomViewOver(r))
	}}
	if err := quick.Check(func(v *View) bool {
		vm := MergeViews(v, v.Clone(), func(sqlx.ColRef) int { return 4 })
		if vm == nil {
			return false
		}
		// The merged view must still match the original exactly, with no
		// residual predicates.
		m := MatchView(v, vm)
		return m != nil && len(m.ResidualRanges) == 0 && len(m.ResidualJoins) == 0
	}, cfg); err != nil {
		t.Error(err)
	}
}
