package physical

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqlx"
)

// refConfig is the flat-map Configuration this package had before the
// per-relation, copy-on-write one: three maps, copied whole by Clone,
// scanned and sorted by every accessor. The property test below holds the
// current implementation to its semantics.
type refConfig struct {
	indexes  map[string]*Index
	views    map[string]*View
	viewSigs map[string]string
}

func newRefConfig() *refConfig {
	return &refConfig{indexes: map[string]*Index{}, views: map[string]*View{}, viewSigs: map[string]string{}}
}

func (c *refConfig) clone() *refConfig {
	n := newRefConfig()
	for k, v := range c.indexes {
		n.indexes[k] = v
	}
	for k, v := range c.views {
		n.views[k] = v
	}
	for k, v := range c.viewSigs {
		n.viewSigs[k] = v
	}
	return n
}

func (c *refConfig) addIndex(ix *Index) *Index {
	if ix.Clustered {
		if existing := c.clusteredOn(ix.Table); existing != nil && existing.ID() != ix.ID() {
			ix = ix.Clone()
			ix.Clustered = false
		}
	}
	id := ix.ID()
	if old, ok := c.indexes[id]; ok {
		if ix.Required && !old.Required {
			c.indexes[id] = ix
			return ix
		}
		return old
	}
	c.indexes[id] = ix
	return ix
}

func (c *refConfig) removeIndex(id string) bool {
	ix, ok := c.indexes[id]
	if !ok || ix.Required {
		return false
	}
	delete(c.indexes, id)
	return true
}

func (c *refConfig) addView(v *View) *View {
	sig := v.buildSignature()
	if name, ok := c.viewSigs[sig]; ok {
		return c.views[name]
	}
	c.views[v.Name] = v
	c.viewSigs[sig] = v.Name
	return v
}

func (c *refConfig) removeView(name string) bool {
	v, ok := c.views[name]
	if !ok {
		return false
	}
	delete(c.views, name)
	delete(c.viewSigs, v.buildSignature())
	for id, ix := range c.indexes {
		if ix.Table == name {
			delete(c.indexes, id)
		}
	}
	return true
}

func (c *refConfig) indexesOn(table string) []string {
	var ids []string
	for id, ix := range c.indexes {
		if ix.Table == table {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

func (c *refConfig) clusteredOn(table string) *Index {
	for _, ix := range c.indexes {
		if ix.Clustered && ix.Table == table {
			return ix
		}
	}
	return nil
}

func (c *refConfig) indexIDs() []string {
	ids := make([]string, 0, len(c.indexes))
	for id := range c.indexes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (c *refConfig) viewNames() []string {
	names := make([]string, 0, len(c.views))
	for name := range c.views {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (c *refConfig) fingerprint() string {
	ids := c.indexIDs()
	for _, v := range c.views {
		ids = append(ids, "v:"+v.buildSignature())
	}
	sort.Strings(ids)
	return strings.Join(ids, "|")
}

func (c *refConfig) diff(other *refConfig) (indexIDs, viewNames []string) {
	for id := range c.indexes {
		if _, ok := other.indexes[id]; !ok {
			indexIDs = append(indexIDs, id)
		}
	}
	for name, v := range c.views {
		if _, ok := other.viewSigs[v.buildSignature()]; !ok {
			viewNames = append(viewNames, name)
		}
	}
	sort.Strings(indexIDs)
	sort.Strings(viewNames)
	return indexIDs, viewNames
}

// apply is Transformation.Apply over the reference.
func (c *refConfig) apply(t *Transformation) *refConfig {
	n := c.clone()
	switch t.Kind {
	case TransMergeIndexes, TransSplitIndexes, TransPrefixIndex, TransPromoteClustered:
		n.removeIndex(t.I1.ID())
		if t.I2 != nil {
			n.removeIndex(t.I2.ID())
		}
		for _, ix := range t.NewIdx {
			n.addIndex(ix)
		}
	case TransRemoveIndex:
		n.removeIndex(t.I1.ID())
	case TransMergeViews:
		n.removeView(t.V1.Name)
		n.removeView(t.V2.Name)
		vm := n.addView(t.VM)
		for _, ix := range t.Promoted {
			if ix.Table != vm.Name {
				ix = ix.Clone()
				ix.Table = vm.Name
			}
			n.addIndex(ix)
		}
	case TransRemoveView:
		n.removeView(t.V1.Name)
	}
	return n
}

func indexIDs(list []*Index) []string {
	ids := make([]string, len(list))
	for i, ix := range list {
		ids[i] = ix.ID()
	}
	return ids
}

// TestConfigurationMatchesFlatMapReference drives random AddIndex,
// RemoveIndex, AddView, RemoveView, Clone and Apply sequences over a
// population of configurations and, after every step, compares every
// member with its flat-map twin — so a write that leaked from a clone into
// its source, or the other way, shows on the next comparison — and checks
// that every view inside a configuration carries a signature equal to one
// rebuilt from its parts.
func TestConfigurationMatchesFlatMapReference(t *testing.T) {
	tables := []string{"t1", "T1", "t2", "t3"} // t1 and T1 are two relations
	cols := []string{"a", "b", "c", "d"}
	width := func(sqlx.ColRef) int { return 4 }
	opts := EnumerateOptions{WidthOf: width, HeapTables: map[string]bool{"t2": true, "t3": true}}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(from []string, n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = from[rng.Intn(len(from))]
			}
			return out
		}
		randomView := func() *View {
			v := &View{Tables: []string{"t1", "t2"}, EstRows: int64(10 + rng.Intn(1000))}
			if rng.Intn(2) == 0 {
				v.Tables = []string{"t2"}
			}
			for _, c := range dedupKeepOrder(pick(cols, 1+rng.Intn(3))) {
				v.Cols = append(v.Cols, BaseViewColumn(sqlx.ColRef{Table: v.Tables[0], Column: c}, 4))
			}
			if rng.Intn(2) == 0 {
				v.Ranges = []RangeCond{{Col: sqlx.ColRef{Table: v.Tables[0], Column: "a"}, Iv: PointInterval(float64(rng.Intn(3)))}}
			}
			switch v.Name = ViewNameFor(v); rng.Intn(3) {
			case 0: // a clone arrives without the seal, under the same name
				v = v.Clone()
			case 1: // a hand-built view never had one
				v = v.Clone()
				v.Name = "h" + v.Name
			}
			return v
		}

		type pair struct {
			cfg *Configuration
			ref *refConfig
		}
		population := []pair{{NewConfiguration(), newRefConfig()}}
		compare := func(step int, op string) {
			t.Helper()
			for i, p := range population {
				at := fmt.Sprintf("seed %d step %d (%s) config %d", seed, step, op, i)
				if got, want := indexIDs(p.cfg.Indexes()), p.ref.indexIDs(); !slices.Equal(got, want) {
					t.Fatalf("%s: Indexes %v, reference %v", at, got, want)
				}
				if p.cfg.NumIndexes() != len(p.ref.indexes) || p.cfg.NumViews() != len(p.ref.views) ||
					p.cfg.NumStructures() != len(p.ref.indexes)+len(p.ref.views) {
					t.Fatalf("%s: %d indexes + %d views, reference %d + %d", at,
						p.cfg.NumIndexes(), p.cfg.NumViews(), len(p.ref.indexes), len(p.ref.views))
				}
				var names []string
				for _, v := range p.cfg.Views() {
					names = append(names, v.Name)
					if v.sig == "" || v.sig != v.buildSignature() {
						t.Fatalf("%s: view %s holds signature %q, its parts give %q", at, v.Name, v.sig, v.buildSignature())
					}
					if r := p.ref.views[v.Name]; r == nil || r.buildSignature() != v.sig || r.EstRows != v.EstRows {
						t.Fatalf("%s: view %s differs from the reference's", at, v.Name)
					}
					if p.cfg.View(v.Name) != v || p.cfg.ViewBySignature(v.sig) != v {
						t.Fatalf("%s: view %s is not found by name and signature", at, v.Name)
					}
				}
				if want := p.ref.viewNames(); !slices.Equal(names, want) {
					t.Fatalf("%s: Views %v, reference %v", at, names, want)
				}
				for _, rel := range append(slices.Clone(tables), append(names, "nowhere")...) {
					if got, want := indexIDs(p.cfg.IndexesOn(rel)), p.ref.indexesOn(rel); !slices.Equal(got, want) {
						t.Fatalf("%s: IndexesOn(%s) %v, reference %v", at, rel, got, want)
					}
					got, want := p.cfg.ClusteredOn(rel), p.ref.clusteredOn(rel)
					if (got == nil) != (want == nil) || (got != nil && got.ID() != want.ID()) {
						t.Fatalf("%s: ClusteredOn(%s) %v, reference %v", at, rel, got, want)
					}
				}
				for id, ix := range p.ref.indexes {
					if got := p.cfg.Index(id); !p.cfg.HasIndex(id) || got == nil || got.Required != ix.Required {
						t.Fatalf("%s: index %s missing or with another Required flag", at, id)
					}
				}
				if got, want := p.cfg.Fingerprint(), p.ref.fingerprint(); got != want {
					t.Fatalf("%s: Fingerprint\n %s\nreference\n %s", at, got, want)
				}
				other := population[rng.Intn(len(population))]
				gotIdx, gotViews := p.cfg.Diff(other.cfg)
				wantIdx, wantViews := p.ref.diff(other.ref)
				if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(gotViews, wantViews) {
					t.Fatalf("%s: Diff (%v, %v), reference (%v, %v)", at, gotIdx, gotViews, wantIdx, wantViews)
				}
			}
		}

		for step := 0; step < 300; step++ {
			i := rng.Intn(len(population))
			p := population[i]
			op := ""
			switch r := rng.Intn(10); {
			case r < 3:
				op = "AddIndex"
				rels := append(slices.Clone(tables), p.ref.viewNames()...)
				table, from := rels[rng.Intn(len(rels))], cols
				if v := p.cfg.View(table); v != nil {
					from = v.AllColumnNames()
				}
				ix := NewIndex(table, pick(from, 1+rng.Intn(2)), pick(from, rng.Intn(3)), rng.Intn(5) == 0)
				ix.Required = rng.Intn(10) == 0
				got, want := p.cfg.AddIndex(ix), p.ref.addIndex(ix)
				if got.ID() != want.ID() || got.Required != want.Required {
					t.Fatalf("seed %d step %d: AddIndex(%s) returned %s, reference %s", seed, step, ix.ID(), got.ID(), want.ID())
				}
			case r < 5:
				op = "RemoveIndex"
				id := "ix:t1(a)"
				if ids := p.ref.indexIDs(); len(ids) > 0 && rng.Intn(8) > 0 {
					id = ids[rng.Intn(len(ids))]
				}
				if got, want := p.cfg.RemoveIndex(id), p.ref.removeIndex(id); got != want {
					t.Fatalf("seed %d step %d: RemoveIndex(%s) = %v, reference %v", seed, step, id, got, want)
				}
			case r < 6:
				op = "AddView"
				v := randomView()
				got, want := p.cfg.AddView(v), p.ref.addView(v)
				if got.Name != want.Name || got.Signature() != want.buildSignature() {
					t.Fatalf("seed %d step %d: AddView(%s) returned %s, reference %s", seed, step, v.Name, got.Name, want.Name)
				}
			case r < 7:
				op = "RemoveView"
				name := "v_none"
				if names := p.ref.viewNames(); len(names) > 0 && rng.Intn(8) > 0 {
					name = names[rng.Intn(len(names))]
				}
				if got, want := p.cfg.RemoveView(name), p.ref.removeView(name); got != want {
					t.Fatalf("seed %d step %d: RemoveView(%s) = %v, reference %v", seed, step, name, got, want)
				}
			case r < 8:
				op = "Clone"
				population = append(population, pair{p.cfg.Clone(), p.ref.clone()})
			default:
				op = "Apply"
				if trans := Enumerate(p.cfg, opts); len(trans) > 0 {
					tr := trans[rng.Intn(len(trans))]
					op += " " + tr.ID()
					population = append(population, pair{tr.Apply(p.cfg), p.ref.apply(tr)})
				}
			}
			if len(population) > 6 {
				drop := rng.Intn(len(population))
				population = slices.Delete(population, drop, drop+1)
			}
			compare(step, op)
		}
	}
}

// wideConfiguration is a 60-index configuration over 8 relations.
func wideConfiguration() *Configuration {
	c := NewConfiguration()
	cols := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for r := 0; r < 8; r++ {
		table := fmt.Sprintf("t%d", r+1)
		c.AddIndex(NewIndex(table, []string{"id"}, nil, true))
		for k := 0; c.NumIndexes() < (r+1)*15/2; k++ {
			c.AddIndex(NewIndex(table, []string{cols[k%8], cols[(k/8+k+1)%8]}, nil, false))
		}
	}
	c.AddView(&View{Name: "v", Tables: []string{"t1"}, Cols: []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "t1", Column: "a"}, 4)}})
	return c
}

// TestConfigurationLookupsAllocateNothing pins what the per-relation
// layout is for: the accessors of the penalty and what-if hot paths are
// lookups, and cloning costs a configuration header and one list header
// per relation, never a copy per index.
func TestConfigurationLookupsAllocateNothing(t *testing.T) {
	c := wideConfiguration()
	if c.NumIndexes() != 60 || len(c.rels) != 8 {
		t.Fatalf("fixture has %d indexes over %d relations, want 60 over 8", c.NumIndexes(), len(c.rels))
	}
	id := c.IndexesOn("t5")[3].ID()
	var sink int
	lookups := testing.AllocsPerRun(1000, func() {
		sink += len(c.IndexesOn("t5")) + len(c.IndexesOn("T5")) + len(c.Views())
		if c.ClusteredOn("t8") != nil && c.HasIndex(id) && !c.HasIndex("ix:t5(zz)") && c.View("v") != nil {
			sink++
		}
	})
	if lookups != 0 {
		t.Errorf("IndexesOn/ClusteredOn/Views/HasIndex/View allocate %.1f per round, want 0", lookups)
	}
	var clone *Configuration
	if allocs := testing.AllocsPerRun(1000, func() { clone = c.Clone() }); allocs > 2 {
		t.Errorf("Clone allocates %.1f objects for 60 indexes, want the header and the relation list", allocs)
	}
	if clone.NumIndexes() != 60 || sink == 0 {
		t.Fatal("clone or lookups lost the fixture")
	}
}

// TestSharedListsAndSizerUnderConcurrentReaders is the race detector's
// view of what the search's fan-out workers do: they read one
// configuration — its shared lists, its sealed view signatures — and size
// its indexes through one sizer, while each derives and mutates clones of
// its own. Nothing a second goroutine can reach is written lazily.
func TestSharedListsAndSizerUnderConcurrentReaders(t *testing.T) {
	shared := wideConfiguration()
	sizer := NewSizer(testResolver{})
	want := shared.Fingerprint()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				clone := shared.Clone()
				for _, ix := range shared.IndexesOn("t3") {
					sizer.IndexBytes(ix, shared)
					sizer.IndexShape(ix, clone)
					if round%2 == w%2 {
						clone.RemoveIndex(ix.ID())
					}
				}
				clone.AddIndex(NewIndex("t3", []string{"a"}, []string{fmt.Sprint("w", w)}, false))
				clone.RemoveView("v")
				sizer.ConfigBytes(clone)
				if shared.Views()[0].Signature() == "" || shared.Fingerprint() != want {
					t.Error("a clone's writes reached the shared configuration")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestIncrementalEnumerationMatchesParentless drives random chains of
// AddIndex, RemoveIndex, AddView, RemoveView and Apply over a population
// of configurations that one Enumerator enumerates, each from the
// enumeration of another member — the configuration it was derived from,
// or, one time in four, an unrelated one. At every step the result must be
// the parent-less enumeration of the same configuration (length, order,
// IDs, added and promoted indexes, merged view and its cardinality), and
// SavedBytes between the two configurations must be the difference of
// their ConfigBytes. Two steps are there for what reuse could get wrong: a
// relation taken out and put back with equal contents (another list, so a
// miss, and every transformation over it is built again), and a view merge
// whose merged view the configuration already holds under another name.
func TestIncrementalEnumerationMatchesParentless(t *testing.T) {
	tables := []string{"t1", "T1", "t2", "t3"} // t1 and T1 are two relations
	cols := []string{"a", "b", "c", "d"}
	// Views under these names replace one another in place, and indexes
	// may name them before they exist: a list can stay what it was while
	// the view under it arrives, changes or goes.
	handNamed := []string{"va", "vb"}
	opts := EnumerateOptions{
		WidthOf:      func(sqlx.ColRef) int { return 4 },
		EstimateRows: func(v *View) int64 { return int64(10 + len(v.Signature())) },
		HeapTables:   map[string]bool{"t2": true, "t3": true},
	}
	sizer := NewSizer(BaseResolverFunc{
		RowsFn:  func(table string) (int64, bool) { return 1000 * int64(table[1]-'0'), true },
		WidthFn: func(string, string) (int, bool) { return 4, true },
		ColsFn:  func(string) []string { return cols },
	})
	sameTrans := func(a, b *Transformation) bool {
		return a.ID() == b.ID() && slices.Equal(indexIDs(a.NewIdx), indexIDs(b.NewIdx)) &&
			slices.Equal(indexIDs(a.Promoted), indexIDs(b.Promoted)) && (a.VM == nil) == (b.VM == nil) &&
			(a.VM == nil || (a.VM.Signature() == b.VM.Signature() && a.VM.EstRows == b.VM.EstRows))
	}
	type member struct {
		cfg *Configuration
		en  *Enumeration
	}
	var shared, built, reAdded, twinMerges int

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEnumerator(opts)
		pick := func(from []string, n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = from[rng.Intn(len(from))]
			}
			return out
		}
		// enumerate checks cfg's enumeration from parent's against the
		// parent-less one, and the ΔS between the two configurations.
		enumerate := func(at string, parent member, cfg *Configuration) member {
			t.Helper()
			en := e.Enumerate(cfg, parent.en)
			fresh := Enumerate(cfg, opts)
			if len(en.Trans) != len(fresh) {
				t.Fatalf("seed %d %s: %d transformations from the parent's enumeration, %d without", seed, at, len(en.Trans), len(fresh))
			}
			for i, tr := range en.Trans {
				if !sameTrans(tr, fresh[i]) {
					t.Fatalf("seed %d %s: transformation %d is %s, parent-less enumeration has %s", seed, at, i, tr.ID(), fresh[i].ID())
				}
			}
			if got, want := sizer.SavedBytes(parent.cfg, cfg), sizer.ConfigBytes(parent.cfg)-sizer.ConfigBytes(cfg); got != want {
				t.Fatalf("seed %d %s: SavedBytes %d, ConfigBytes differ by %d", seed, at, got, want)
			}
			shared, built = shared+en.Shared, built+len(en.Trans)-en.Shared
			return member{cfg, en}
		}

		population := []member{enumerate("root", member{cfg: NewConfiguration()}, NewConfiguration())}
		for step := 0; step < 300; step++ {
			p := population[rng.Intn(len(population))]
			from := p
			if rng.Intn(4) == 0 {
				from = population[rng.Intn(len(population))]
			}
			cfg := p.cfg.Clone()
			at := fmt.Sprintf("step %d", step)
			switch r := rng.Intn(12); {
			case r < 3: // AddIndex, over a table or a view
				rels := append(slices.Clone(tables), handNamed...)
				for _, v := range cfg.Views() {
					rels = append(rels, v.Name)
				}
				table, columns := rels[rng.Intn(len(rels))], cols
				if v := cfg.View(table); v != nil {
					columns = v.AllColumnNames()
				} else if slices.Contains(handNamed, table) {
					columns = []string{"t1_a", "t1_b", "t2_a", "t2_b"} // the view may come later
				}
				ix := NewIndex(table, pick(columns, 1+rng.Intn(2)), pick(columns, rng.Intn(3)), rng.Intn(5) == 0)
				ix.Required = rng.Intn(10) == 0
				cfg.AddIndex(ix)
			case r < 5: // RemoveIndex
				if all := cfg.Indexes(); len(all) > 0 {
					cfg.RemoveIndex(all[rng.Intn(len(all))].ID())
				}
			case r < 7: // AddView
				v := &View{Tables: []string{"t1", "t2"}, EstRows: int64(10 + rng.Intn(1000))}
				if rng.Intn(2) == 0 {
					v.Tables = []string{"t2"}
				}
				for _, c := range dedupKeepOrder(pick(cols, 1+rng.Intn(3))) {
					v.Cols = append(v.Cols, BaseViewColumn(sqlx.ColRef{Table: v.Tables[0], Column: c}, 4))
				}
				if rng.Intn(2) == 0 {
					v.Ranges = []RangeCond{{Col: sqlx.ColRef{Table: v.Tables[0], Column: "a"}, Iv: PointInterval(float64(rng.Intn(3)))}}
				}
				if v.Name = ViewNameFor(v); rng.Intn(3) == 0 {
					v.Name = handNamed[rng.Intn(len(handNamed))]
				}
				cfg.AddView(v)
			case r < 8: // RemoveView
				if views := cfg.Views(); len(views) > 0 {
					cfg.RemoveView(views[rng.Intn(len(views))].Name)
				}
			case r < 9: // one relation out and back in, index by index
				if len(cfg.rels) == 0 {
					continue
				}
				list := cfg.rels[rng.Intn(len(cfg.rels))].indexes
				for _, ix := range list {
					if cfg.RemoveIndex(ix.ID()) {
						cfg.AddIndex(ix)
					}
				}
				now := cfg.IndexesOn(list[0].Table)
				if !slices.Equal(now, list) {
					t.Fatalf("seed %d %s: the relation came back as %v, was %v", seed, at, indexIDs(now), indexIDs(list))
				}
				if sameList(now, list) {
					continue // only required indexes: nothing moved
				}
				reAdded++
				child := enumerate(at+" (relation re-added)", p, cfg)
				for _, tr := range child.en.Trans {
					if tr.I1 != nil && tr.I1.Table == list[0].Table && slices.Contains(p.en.Trans, tr) {
						t.Fatalf("seed %d %s: %s was shared across a list that was replaced", seed, at, tr.ID())
					}
				}
				population = append(population, child)
				continue
			case r < 10: // a merged view the configuration already holds under another name
				var merge *Transformation
				for _, tr := range p.en.Trans {
					if tr.Kind == TransMergeViews && cfg.ViewBySignature(tr.VM.Signature()) == nil {
						merge = tr
						break
					}
				}
				if merge == nil {
					continue
				}
				twin := merge.VM.Clone()
				twin.Name = "twin_" + twin.Name
				cfg.AddView(twin)
				withTwin := enumerate(at+" (twin added)", from, cfg)
				for _, tr := range withTwin.en.Trans {
					if tr.ID() == merge.ID() {
						cfg = tr.Apply(cfg)
					}
				}
				if cfg.View(merge.VM.Name) != nil || cfg.View(twin.Name) == nil || len(cfg.IndexesOn(twin.Name)) == 0 {
					t.Fatalf("seed %d %s: the merge did not land on the view already there", seed, at)
				}
				twinMerges++
				population = append(population, withTwin, enumerate(at+" (merged into twin)", withTwin, cfg))
				continue
			default: // Apply
				if len(p.en.Trans) > 0 {
					tr := p.en.Trans[rng.Intn(len(p.en.Trans))]
					at += " " + tr.ID()
					cfg = tr.Apply(p.cfg)
				}
			}
			population = append(population, enumerate(at, from, cfg))
			for len(population) > 6 {
				drop := rng.Intn(len(population))
				population = slices.Delete(population, drop, drop+1)
			}
		}
	}
	t.Logf("%d transformations shared, %d built; %d relations re-added, %d merges into a twin", shared, built, reAdded, twinMerges)
	if shared == 0 || reAdded == 0 || twinMerges == 0 {
		t.Errorf("the chains never exercised sharing (%d), a re-added relation (%d) or a twin merge (%d)", shared, reAdded, twinMerges)
	}
}
