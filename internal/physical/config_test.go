package physical

import (
	"strings"
	"testing"

	"repro/internal/sqlx"
)

func TestConfigurationAddRemove(t *testing.T) {
	c := NewConfiguration()
	ix := NewIndex("t", []string{"a"}, nil, false)
	c.AddIndex(ix)
	if !c.HasIndex(ix.ID()) {
		t.Fatal("index missing after add")
	}
	// Duplicate adds collapse.
	c.AddIndex(NewIndex("t", []string{"a"}, nil, false))
	if c.NumIndexes() != 1 {
		t.Errorf("duplicates should collapse: %d", c.NumIndexes())
	}
	if !c.RemoveIndex(ix.ID()) {
		t.Error("remove failed")
	}
	if c.RemoveIndex(ix.ID()) {
		t.Error("double remove should report false")
	}
}

func TestConfigurationRequiredProtection(t *testing.T) {
	c := NewConfiguration()
	req := NewIndex("t", []string{"a"}, nil, true)
	req.Required = true
	c.AddIndex(req)
	if c.RemoveIndex(req.ID()) {
		t.Error("required indexes must not be removable")
	}
	if !c.HasIndex(req.ID()) {
		t.Error("required index vanished")
	}
}

func TestConfigurationSingleClusteredPerTable(t *testing.T) {
	c := NewConfiguration()
	c.AddIndex(NewIndex("t", []string{"a"}, nil, true))
	added := c.AddIndex(NewIndex("t", []string{"b"}, nil, true))
	if added.Clustered {
		t.Error("second clustered index should be demoted")
	}
	if c.ClusteredOn("t") == nil {
		t.Error("clustered index lookup failed")
	}
}

func TestConfigurationCloneIsolation(t *testing.T) {
	c := NewConfiguration()
	ix := NewIndex("t", []string{"a"}, nil, false)
	c.AddIndex(ix)
	clone := c.Clone()
	clone.RemoveIndex(ix.ID())
	if !c.HasIndex(ix.ID()) {
		t.Error("clone mutation leaked into the original")
	}
}

func TestConfigurationViewCascade(t *testing.T) {
	c := NewConfiguration()
	v := &View{Name: "v", Tables: []string{"t"}, Cols: []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "t", Column: "a"}, 4)}}
	c.AddView(v)
	c.AddIndex(NewIndex("v", []string{v.Cols[0].Name}, nil, true))
	c.AddIndex(NewIndex("t", []string{"a"}, nil, false))
	if !c.RemoveView("v") {
		t.Fatal("remove view failed")
	}
	if len(c.IndexesOn("v")) != 0 {
		t.Error("view removal must cascade to its indexes")
	}
	if len(c.IndexesOn("t")) != 1 {
		t.Error("cascade removed unrelated indexes")
	}
}

func TestConfigurationViewDedupBySignature(t *testing.T) {
	c := NewConfiguration()
	v1 := &View{Name: "v1", Tables: []string{"t"}, Cols: []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "t", Column: "a"}, 4)}}
	v2 := &View{Name: "v2", Tables: []string{"t"}, Cols: []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "t", Column: "a"}, 4)}}
	got1 := c.AddView(v1)
	got2 := c.AddView(v2)
	if got1 != got2 {
		t.Error("identical definitions should dedup to one view")
	}
	if c.NumViews() != 1 {
		t.Errorf("views: %d", c.NumViews())
	}
	if c.ViewBySignature(v1.Signature()) == nil {
		t.Error("signature lookup failed")
	}
}

func TestFingerprintIdentity(t *testing.T) {
	build := func() *Configuration {
		c := NewConfiguration()
		c.AddIndex(NewIndex("t", []string{"a"}, []string{"b"}, false))
		c.AddIndex(NewIndex("u", []string{"x"}, nil, true))
		return c
	}
	if build().Fingerprint() != build().Fingerprint() {
		t.Error("fingerprints of equal configurations must match")
	}
	other := build()
	other.AddIndex(NewIndex("t", []string{"c"}, nil, false))
	if build().Fingerprint() == other.Fingerprint() {
		t.Error("different configurations must differ")
	}
}

func TestDiff(t *testing.T) {
	a := NewConfiguration()
	b := NewConfiguration()
	shared := NewIndex("t", []string{"a"}, nil, false)
	only := NewIndex("t", []string{"b"}, nil, false)
	a.AddIndex(shared)
	a.AddIndex(only)
	b.AddIndex(shared)
	idx, views := a.Diff(b)
	if len(idx) != 1 || idx[0] != only.ID() || len(views) != 0 {
		t.Errorf("diff: %v %v", idx, views)
	}
}

func TestIndexesOnSorted(t *testing.T) {
	c := NewConfiguration()
	c.AddIndex(NewIndex("t", []string{"b"}, nil, false))
	c.AddIndex(NewIndex("t", []string{"a"}, nil, false))
	got := c.IndexesOn("t")
	if len(got) != 2 || strings.Compare(got[0].ID(), got[1].ID()) > 0 {
		t.Errorf("IndexesOn must be sorted: %v", got)
	}
}
