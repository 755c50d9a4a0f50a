package physical

import (
	"testing"

	"repro/internal/sqlx"
	"repro/internal/storage"
)

// testResolver is a fixed two-table schema for size tests.
type testResolver struct{}

func (testResolver) TableRows(table string) (int64, bool) {
	switch table {
	case "big":
		return 1_000_000, true
	case "small":
		return 1_000, true
	}
	return 0, false
}

func (testResolver) ColWidth(table, col string) (int, bool) {
	switch col {
	case "a", "b", "c":
		return 4, true
	case "pad":
		return 100, true
	}
	return 0, false
}

func (testResolver) TableCols(table string) []string {
	return []string{"a", "b", "c", "pad"}
}

func TestSizerIndexBytesScalesWithRows(t *testing.T) {
	s := NewSizer(testResolver{})
	big := s.IndexBytes(NewIndex("big", []string{"a"}, nil, false), nil)
	small := s.IndexBytes(NewIndex("small", []string{"a"}, nil, false), nil)
	if big <= small {
		t.Errorf("bigger table must yield a bigger index: %d <= %d", big, small)
	}
}

func TestSizerClusteredStoresFullRows(t *testing.T) {
	s := NewSizer(testResolver{})
	clustered := s.IndexBytes(NewIndex("big", []string{"a"}, nil, true), nil)
	secondary := s.IndexBytes(NewIndex("big", []string{"a"}, nil, false), nil)
	if clustered <= secondary {
		t.Errorf("clustered leaves carry full rows: %d <= %d", clustered, secondary)
	}
}

func TestSizerSuffixWidensIndex(t *testing.T) {
	s := NewSizer(testResolver{})
	narrow := s.IndexBytes(NewIndex("big", []string{"a"}, nil, false), nil)
	wide := s.IndexBytes(NewIndex("big", []string{"a"}, []string{"pad"}, false), nil)
	if wide <= narrow {
		t.Errorf("suffix columns must grow the index: %d <= %d", wide, narrow)
	}
}

func TestSizerUnknownTable(t *testing.T) {
	s := NewSizer(testResolver{})
	ix := NewIndex("missing", []string{"a"}, nil, false)
	if got := s.IndexBytes(ix, nil); got != 0 {
		t.Errorf("unknown table should size to 0, got %d", got)
	}
	if sh := s.IndexShape(ix, nil); sh != (IndexShape{LeafPages: 1}) {
		t.Errorf("unknown table has shape %+v; want one leaf page and nothing else", sh)
	}
}

func TestSizerViewBackedIndex(t *testing.T) {
	s := NewSizer(testResolver{})
	cfg := NewConfiguration()
	v := &View{
		Name:    "v",
		Tables:  []string{"big"},
		Cols:    []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "big", Column: "a"}, 4)},
		EstRows: 50_000,
	}
	v = cfg.AddView(v) // the instance the configuration holds
	ix := NewIndex("v", []string{v.Cols[0].Name}, nil, false)
	cfg.AddIndex(ix)
	sz := s.IndexBytes(ix, cfg)
	if sz <= 0 {
		t.Fatal("view index should have a size")
	}
	// Re-estimating the view's cardinality must re-size the index.
	v.EstRows = 500_000
	sz2 := s.IndexBytes(ix, cfg)
	if sz2 <= sz {
		t.Errorf("size should track view cardinality: %d <= %d", sz2, sz)
	}
}

func TestConfigBytesSumsIndexes(t *testing.T) {
	s := NewSizer(testResolver{})
	cfg := NewConfiguration()
	i1 := NewIndex("big", []string{"a"}, nil, false)
	i2 := NewIndex("small", []string{"b"}, nil, false)
	cfg.AddIndex(i1)
	cfg.AddIndex(i2)
	want := s.IndexBytes(i1, cfg) + s.IndexBytes(i2, cfg)
	if got := s.ConfigBytes(cfg); got != want {
		t.Errorf("ConfigBytes = %d, want %d", got, want)
	}
}

func TestIndexPagesConsistentWithBytes(t *testing.T) {
	s := NewSizer(testResolver{})
	ix := NewIndex("big", []string{"a", "b"}, []string{"c"}, false)
	sh := s.IndexShape(ix, nil)
	if sh.Bytes != s.IndexBytes(ix, nil) || sh.Bytes%storage.PageSize != 0 {
		t.Error("pages and bytes disagree")
	}
	if sh.LeafPages > sh.Bytes/storage.PageSize {
		t.Error("leaf pages exceed total pages")
	}
}

func TestHeapPagesForViewAndTable(t *testing.T) {
	s := NewSizer(testResolver{})
	if s.HeapPages("big", nil) <= s.HeapPages("small", nil) {
		t.Error("bigger table needs more heap pages")
	}
	cfg := NewConfiguration()
	cfg.AddView(&View{Name: "v", Tables: []string{"big"}, Cols: []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "big", Column: "a"}, 4)}, EstRows: 10})
	if s.HeapPages("v", cfg) != 1 {
		t.Errorf("tiny view should fit one page: %d", s.HeapPages("v", cfg))
	}
}
