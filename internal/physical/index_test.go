package physical

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewIndexNormalizes(t *testing.T) {
	ix := NewIndex("t", []string{"a", "b", "a"}, []string{"b", "c", "c", "a"}, false)
	if len(ix.Keys) != 2 {
		t.Errorf("keys should dedup: %v", ix.Keys)
	}
	if len(ix.Suffix) != 1 || ix.Suffix[0] != "c" {
		t.Errorf("suffix should exclude keys and dedup: %v", ix.Suffix)
	}
}

func TestIndexIDStable(t *testing.T) {
	a := NewIndex("t", []string{"a", "b"}, []string{"c"}, false)
	b := NewIndex("t", []string{"a", "b"}, []string{"c"}, false)
	if a.ID() != b.ID() {
		t.Error("identical definitions must share an ID")
	}
	c := NewIndex("t", []string{"a", "b"}, []string{"c"}, true)
	if a.ID() == c.ID() {
		t.Error("clustered flag must distinguish IDs")
	}
}

// TestMergePaperExample reproduces the exact example of §3.1.1:
// merging I1 = ([a,b,c]; {d,e,f}) and I2 = ([c,d,g]; {e}) results in
// I1,2 = ([a,b,c]; {d,e,f,g}).
func TestMergePaperExample(t *testing.T) {
	i1 := NewIndex("t", []string{"a", "b", "c"}, []string{"d", "e", "f"}, false)
	i2 := NewIndex("t", []string{"c", "d", "g"}, []string{"e"}, false)
	m := MergeIndexes(i1, i2)
	if m == nil {
		t.Fatal("merge failed")
	}
	if strings.Join(m.Keys, ",") != "a,b,c" {
		t.Errorf("keys: %v", m.Keys)
	}
	if strings.Join(m.Suffix, ",") != "d,e,f,g" {
		t.Errorf("suffix: %v", m.Suffix)
	}
}

// TestMergePrefixCase: when K1 is a prefix of K2 the merge keeps K2 as
// the key sequence (the minor improvement in §3.1.1).
func TestMergePrefixCase(t *testing.T) {
	i1 := NewIndex("t", []string{"a", "b"}, []string{"x"}, false)
	i2 := NewIndex("t", []string{"a", "b", "c"}, []string{"y"}, false)
	m := MergeIndexes(i1, i2)
	if strings.Join(m.Keys, ",") != "a,b,c" {
		t.Errorf("keys: %v", m.Keys)
	}
	if strings.Join(m.Suffix, ",") != "x,y" {
		t.Errorf("suffix: %v", m.Suffix)
	}
}

func TestMergeDifferentTablesFails(t *testing.T) {
	i1 := NewIndex("t", []string{"a"}, nil, false)
	i2 := NewIndex("u", []string{"a"}, nil, false)
	if MergeIndexes(i1, i2) != nil {
		t.Error("cross-table merge must be nil")
	}
}

// Property: the merged index covers every column of both inputs and is
// seekable wherever I1 is (K1 is a prefix of the merged keys, or K1 is a
// prefix of K2 and the merged keys equal K2).
func TestMergeIndexesProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomIndex(r))
		vals[1] = reflect.ValueOf(randomIndex(r))
	}}
	if err := quick.Check(func(i1, i2 *Index) bool {
		m := MergeIndexes(i1, i2)
		if m == nil {
			return false
		}
		if !m.Covers(i1.Columns()) || !m.Covers(i2.Columns()) {
			return false
		}
		return isKeyPrefix(i1.Keys, m.Keys) || (isKeyPrefix(i1.Keys, i2.Keys) && isKeyPrefix(m.Keys, i2.Keys) && isKeyPrefix(i2.Keys, m.Keys))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func randomIndex(r *rand.Rand) *Index {
	cols := []string{"a", "b", "c", "d", "e", "f", "g"}
	r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	nk := 1 + r.Intn(3)
	ns := r.Intn(3)
	return NewIndex("t", cols[:nk], cols[nk:nk+ns], false)
}

// TestSplitFormula checks the split definition on a concrete pair:
// IC = (K1∩K2 in K1 order; S1∩S2), residuals carry what is left.
func TestSplitFormula(t *testing.T) {
	i1 := NewIndex("t", []string{"a", "b", "c"}, []string{"d", "e", "f"}, false)
	i2 := NewIndex("t", []string{"c", "a"}, []string{"e"}, false)
	common, r1, r2 := SplitIndexes(i1, i2)
	if common == nil {
		t.Fatal("split failed")
	}
	if strings.Join(common.Keys, ",") != "a,c" {
		t.Errorf("common keys: %v", common.Keys)
	}
	if strings.Join(common.Suffix, ",") != "e" {
		t.Errorf("common suffix: %v", common.Suffix)
	}
	if r1 == nil || strings.Join(r1.Keys, ",") != "b" {
		t.Errorf("residual 1: %v", r1)
	}
	if strings.Join(r1.Suffix, ",") != "d,f" {
		t.Errorf("residual 1 suffix: %v", r1.Suffix)
	}
	// K2 ⊆ KC, so there is no second residual.
	if r2 != nil {
		t.Errorf("residual 2 should be nil: %v", r2)
	}
}

func TestSplitUndefinedWithoutCommonKeys(t *testing.T) {
	i1 := NewIndex("t", []string{"a"}, []string{"x"}, false)
	i2 := NewIndex("t", []string{"b"}, []string{"x"}, false)
	if c, _, _ := SplitIndexes(i1, i2); c != nil {
		t.Error("split without common key columns must be undefined")
	}
}

// Property: the split outputs cover every KEY column of both inputs (so
// index intersections can reconstruct each seek). Suffix columns may be
// dropped — the paper compensates with rid lookups over IC's result when
// a residual does not exist.
func TestSplitCoversKeysProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomIndex(r))
		vals[1] = reflect.ValueOf(randomIndex(r))
	}}
	if err := quick.Check(func(i1, i2 *Index) bool {
		common, r1, r2 := SplitIndexes(i1, i2)
		if common == nil {
			return len(intersectOrdered(i1.Keys, i2.Keys)) == 0
		}
		have := common.Columns()
		if r1 != nil {
			have = unionCols(have, r1.Columns())
		}
		if r2 != nil {
			have = unionCols(have, r2.Columns())
		}
		for _, c := range unionCols(i1.Keys, i2.Keys) {
			if !slices.Contains(have, c) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestPrefixIndex(t *testing.T) {
	ix := NewIndex("t", []string{"a", "b"}, []string{"c"}, false)
	p1 := PrefixIndex(ix, 1)
	if p1 == nil || len(p1.Keys) != 1 || len(p1.Suffix) != 0 {
		t.Errorf("prefix(1): %v", p1)
	}
	// n == len(K) is allowed because the suffix is non-empty.
	p2 := PrefixIndex(ix, 2)
	if p2 == nil || len(p2.Suffix) != 0 {
		t.Errorf("prefix(2): %v", p2)
	}
	bare := NewIndex("t", []string{"a"}, nil, false)
	if PrefixIndex(bare, 1) != nil {
		t.Error("full prefix of a suffix-less index is the index itself")
	}
	if PrefixIndex(ix, 0) != nil || PrefixIndex(ix, 3) != nil {
		t.Error("out-of-range prefix lengths must be nil")
	}
}

func TestPromoteToClustered(t *testing.T) {
	ix := NewIndex("t", []string{"a"}, []string{"b"}, false)
	p := PromoteToClustered(ix)
	if p == nil || !p.Clustered {
		t.Fatal("promotion failed")
	}
	if PromoteToClustered(p) != nil {
		t.Error("promoting a clustered index must fail")
	}
	if ix.Clustered {
		t.Error("promotion must not mutate the input")
	}
}

func TestCoversAndPrefixLen(t *testing.T) {
	ix := NewIndex("t", []string{"a", "b"}, []string{"c"}, false)
	if !ix.Covers([]string{"a", "c"}) {
		t.Error("key and suffix columns should be covered")
	}
	if ix.Covers([]string{"d"}) {
		t.Error("missing column should not be covered")
	}
	if got := ix.KeyPrefixLen([]string{"b", "a"}); got != 2 {
		t.Errorf("KeyPrefixLen order-insensitive match: %d", got)
	}
	if got := ix.KeyPrefixLen([]string{"b"}); got != 0 {
		t.Errorf("prefix must start at the first key: %d", got)
	}
}

func TestSharedKeyPrefixLen(t *testing.T) {
	a := NewIndex("t", []string{"a", "b", "c"}, nil, false)
	b := NewIndex("t", []string{"a", "b", "x"}, nil, false)
	if got := a.SharedKeyPrefixLen(b); got != 2 {
		t.Errorf("shared prefix: %d", got)
	}
}
