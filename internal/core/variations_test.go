package core

import (
	"testing"

	"repro/internal/physical"
)

// budgetFor computes a fraction of the optimal configuration's size.
func budgetFor(t *testing.T, tn *Tuner, num, den int64) int64 {
	t.Helper()
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	return tn.Opt.Sizer().ConfigBytes(optCfg) * num / den
}

func TestMultiTransformConvergesFaster(t *testing.T) {
	probe := tpchTuner(t, Options{NoViews: true})
	budget := budgetFor(t, probe, 1, 4)

	single := tpchTuner(t, Options{NoViews: true, SpaceBudget: budget, MaxIterations: 200})
	resSingle, err := single.Tune()
	if err != nil {
		t.Fatal(err)
	}
	multi := tpchTuner(t, Options{NoViews: true, SpaceBudget: budget, MaxIterations: 200, MultiTransform: 4})
	resMulti, err := multi.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if resMulti.Best.SizeBytes > budget {
		t.Error("multi-transform violated the budget")
	}
	// Reaching a fitting configuration should take fewer iterations when
	// several transformations apply per step.
	firstFit := func(res *Result) int {
		for _, p := range res.Frontier {
			if p.Fits {
				return p.Iteration
			}
		}
		return 1 << 30
	}
	if firstFit(resMulti) > firstFit(resSingle) {
		t.Errorf("multi-transform should reach a fitting configuration no later: %d > %d",
			firstFit(resMulti), firstFit(resSingle))
	}
}

func TestShrinkUnusedKeepsValidity(t *testing.T) {
	probe := tpchTuner(t, Options{NoViews: true})
	budget := budgetFor(t, probe, 1, 3)
	tn := tpchTuner(t, Options{NoViews: true, SpaceBudget: budget, MaxIterations: 60, ShrinkUnused: true})
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.SizeBytes > budget {
		t.Error("shrinking violated the budget")
	}
	if res.Best.Cost > res.Initial.Cost {
		t.Error("shrinking produced a worse-than-initial recommendation")
	}
}

func TestShrinkUnusedRemovesOnlyUnused(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	// Plant an index nothing uses.
	planted := physical.NewIndex("region", []string{"r_comment"}, nil, false)
	withJunk := optCfg.Clone()
	withJunk.AddIndex(planted)
	ec, err := tn.Evaluate(withJunk)
	if err != nil {
		t.Fatal(err)
	}
	shrunkCfg := shrinkUnused(ec)
	if shrunkCfg == nil {
		t.Fatal("planted junk should have been shrunk away")
	}
	shrunk, _, err := tn.EvaluateIncremental(ec, shrunkCfg, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Config.HasIndex(planted.ID()) {
		t.Error("unused planted index survived")
	}
	// Shrinking unused structures cannot change the select cost.
	if shrunk.Cost > ec.Cost+1e-9 {
		t.Errorf("shrink increased cost: %.3f > %.3f", shrunk.Cost, ec.Cost)
	}
	// Every surviving non-required index is used (or materializes a view).
	for _, ix := range shrunk.Config.Indexes() {
		if ix.Required {
			continue
		}
		usedSomewhere := false
		for _, r := range shrunk.Results {
			if r.Plan != nil && r.Plan.UsesIndex(ix.ID()) {
				usedSomewhere = true
				break
			}
		}
		if !usedSomewhere && shrunk.Config.View(ix.Table) == nil {
			t.Errorf("unused index %s survived shrinking", ix.ID())
		}
	}
}

func TestSelectNonConflicting(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true, MultiTransform: 3})
	i1 := physical.NewIndex("t", []string{"a"}, nil, false)
	i2 := physical.NewIndex("t", []string{"b"}, nil, false)
	i3 := physical.NewIndex("t", []string{"c"}, nil, false)
	ranked := []candidate{
		{tr: &physical.Transformation{Kind: physical.TransRemoveIndex, I1: i1}},
		{tr: &physical.Transformation{Kind: physical.TransMergeIndexes, I1: i1, I2: i2,
			NewIdx: []*physical.Index{physical.MergeIndexes(i1, i2)}}}, // conflicts with removal of i1
		{tr: &physical.Transformation{Kind: physical.TransRemoveIndex, I1: i3}},
	}
	out := tn.selectNonConflicting(ranked)
	if len(out) != 2 {
		t.Fatalf("expected 2 non-conflicting transformations, got %d", len(out))
	}
	if out[1].tr.I1.ID() != i3.ID() {
		t.Errorf("conflicting merge should have been skipped: %v", out[1])
	}
}

func TestSelectNonConflictingSingleMode(t *testing.T) {
	tn := tpchTuner(t, Options{})
	i1 := physical.NewIndex("t", []string{"a"}, nil, false)
	i2 := physical.NewIndex("t", []string{"b"}, nil, false)
	ranked := []candidate{
		{tr: &physical.Transformation{Kind: physical.TransRemoveIndex, I1: i1}},
		{tr: &physical.Transformation{Kind: physical.TransRemoveIndex, I1: i2}},
	}
	if got := tn.selectNonConflicting(ranked); len(got) != 1 {
		t.Errorf("default mode applies exactly one transformation, got %d", len(got))
	}
}
