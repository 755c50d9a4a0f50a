package physical

import (
	"sync"
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

// otherResolver sizes the same tables as testResolver ten times larger,
// with wider columns.
type otherResolver struct{ testResolver }

func (o otherResolver) TableRows(table string) (int64, bool) {
	rows, ok := o.testResolver.TableRows(table)
	return 10 * rows, ok
}

func (o otherResolver) ColWidth(table, col string) (int, bool) {
	w, ok := o.testResolver.ColWidth(table, col)
	return w + 4, ok
}

// memoFixture is one index over base table big, one clustered and one
// secondary index over a view v, and two configurations that hold the
// same indexes over two views named v of different cardinalities.
func memoFixture() (onTable *Index, onView []*Index, cfgs [2]*Configuration) {
	onTable = NewIndex("big", []string{"a"}, []string{"pad"}, false)
	cols := []ViewColumn{
		BaseViewColumn(sqlx.ColRef{Table: "big", Column: "a"}, 4),
		BaseViewColumn(sqlx.ColRef{Table: "big", Column: "pad"}, 100),
	}
	for i, rows := range [2]int64{50_000, 700_000} {
		cfgs[i] = NewConfiguration()
		v := cfgs[i].AddView(&View{Name: "v", Tables: []string{"big"}, Cols: cols, EstRows: rows})
		if onView == nil {
			onView = []*Index{
				NewIndex("v", v.AllColumnNames(), nil, true),
				NewIndex("v", []string{v.Cols[1].Name}, nil, false),
			}
		}
		for _, ix := range append([]*Index{onTable}, onView...) {
			cfgs[i].AddIndex(ix)
		}
	}
	return onTable, onView, cfgs
}

// TestShapeMemoFollowsSizerAndView sizes the same indexes by turns with
// two sizers over different resolvers and, over a view, within two
// configurations whose views under that name differ in cardinality: every
// answer must be the shape resolve computes for that sizer and view, never
// the one the index kept from the turn before.
func TestShapeMemoFollowsSizerAndView(t *testing.T) {
	onTable, onView, cfgs := memoFixture()
	sizers := [2]*Sizer{NewSizer(testResolver{}), NewSizer(otherResolver{})}
	if a, b := sizers[0].resolve(onTable, nil), sizers[1].resolve(onTable, nil); a == b {
		t.Fatalf("the two resolvers size %s alike (%+v), so the test shows nothing", onTable, a)
	}
	for round := 0; round < 4; round++ {
		for _, s := range sizers {
			if got, want := s.IndexShape(onTable, nil), s.resolve(onTable, nil); got != want {
				t.Fatalf("round %d: %s is %+v, resolve gives %+v", round, onTable, got, want)
			}
			for _, ix := range onView {
				var shapes [2]IndexShape
				for i, cfg := range cfgs {
					v := cfg.View("v")
					if got, want := s.IndexShape(ix, cfg), s.resolve(ix, v); got != want {
						t.Fatalf("round %d: %s over %d view rows is %+v, resolve gives %+v", round, ix, v.EstRows, got, want)
					}
					if got, want := s.ShapeOn(ix, nil), s.resolve(ix, nil); got != want {
						t.Fatalf("round %d: %s without its view is %+v, resolve gives %+v", round, ix, got, want)
					}
					shapes[i] = s.ShapeOn(ix, v)
				}
				if shapes[0] == shapes[1] {
					t.Fatalf("%s has one shape over both cardinalities, so the test shows nothing", ix)
				}
			}
		}
	}
	// A view estimated at no rows is a view all the same: its indexes are
	// not sized as over an unknown table.
	empty := *cfgs[0].View("v")
	empty.EstRows = 0
	s := sizers[0]
	for round := 0; round < 2; round++ {
		for _, v := range [2]*View{&empty, nil} {
			if got, want := s.ShapeOn(onView[1], v), s.resolve(onView[1], v); got != want {
				t.Fatalf("round %d: %s over %v is %+v, resolve gives %+v", round, onView[1], v, got, want)
			}
		}
	}
	if s.resolve(onView[1], &empty) == s.resolve(onView[1], nil) {
		t.Fatal("an empty view and no view size alike, so the test shows nothing")
	}
}

// TestShapeMemoUnderConcurrentSizers sizes the shared indexes of the
// fixture from several goroutines at once, each alternating between the
// two view cardinalities and the two sizers, and checks every answer
// against resolve. Run under the race detector, it also shows that the
// shape an index keeps is published whole.
func TestShapeMemoUnderConcurrentSizers(t *testing.T) {
	onTable, onView, cfgs := memoFixture()
	sizers := [2]*Sizer{NewSizer(testResolver{}), NewSizer(otherResolver{})}
	all := append([]*Index{onTable}, onView...)
	var want [2][2][]IndexShape // by sizer, configuration, index
	for s := range sizers {
		for c, cfg := range cfgs {
			for _, ix := range all {
				want[s][c] = append(want[s][c], sizers[s].resolve(ix, cfg.View(ix.Table)))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				s, c := (w+round)%2, (w+round/2)%2
				for i, ix := range all {
					if got := sizers[s].IndexShape(ix, cfgs[c]); got != want[s][c][i] {
						t.Errorf("worker %d round %d: %s is %+v, resolve gives %+v", w, round, ix, got, want[s][c][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
