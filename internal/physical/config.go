package physical

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
)

// Configuration is a set of indexes and materialized views. Configurations
// are treated as immutable values by the search: transformations produce
// new configurations sharing unchanged structures with their parents.
//
// Indexes are held per relation (base table or view), each relation's
// list sorted by ID; views are held in one name-sorted list. Both kinds
// of list are copy-on-write: a change installs a fresh list and never
// writes to one that exists, so a clone shares every list with its
// source, the lists handed out by IndexesOn and Views stay valid (and
// must not be written by the caller), and readers on other goroutines
// need no lock. Nothing here is filled in lazily — everything a reader
// sees was sealed by the writer that installed it.
type Configuration struct {
	// rels has one entry per relation carrying at least one index, in
	// name order (the order enumeration lists relations in).
	// The slice itself belongs to this configuration: Clone copies it, one
	// entry per relation.
	rels  []relation
	views []*View
}

// relation is the index list of one base table or view.
type relation struct {
	name    string // the indexes' Table
	indexes []*Index
}

// NewConfiguration returns an empty configuration.
func NewConfiguration() *Configuration { return &Configuration{} }

// Clone returns a copy that can be mutated independently. It copies one
// list header per relation and shares the lists themselves.
func (c *Configuration) Clone() *Configuration {
	return &Configuration{rels: slices.Clone(c.rels), views: c.views}
}

// rel returns the position the named relation has, or would take, in
// c.rels, and whether it is there. It is on every costing call's path,
// hence a plain loop: slices.BinarySearchFunc would call a closure on a
// copy of the relation per probe.
func (c *Configuration) rel(table string) (int, bool) {
	lo, hi := 0, len(c.rels)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.rels[mid].name < table {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c.rels) && c.rels[lo].name == table
}

// ListApart is one index list that two configurations do not hold alike
// (RelationsApart): the relation's name, its list, the view it is over in
// the configuration holding it (nil over a base table), and whether that
// configuration is the step's before side.
type ListApart struct {
	Name   string
	List   []*Index
	View   *View
	Before bool
}

// RelationsApart appends to out every index list, over a table or a view,
// that one of two configurations holds and the other does not hold as it
// is: with another list (sameList), or with the same list under a view
// only one of them holds as it is. A relation the two hold each their own
// way comes from before first. Both configurations keep their relations
// in name order, so one merge walk pairs them, and every reader of the
// result (SavedBytes, an update statement's shell term) reads the lists
// in that order.
func RelationsApart(out []ListApart, before, after *Configuration) []ListApart {
	var buf [4]*View
	views := viewsApart(buf[:0], before.views, after.views)
	viewApart := func(r *relation) bool {
		return slices.ContainsFunc(views, func(v *View) bool { return v.Name == r.name })
	}
	held := func(r *relation, in *Configuration) ListApart {
		return ListApart{Name: r.name, List: r.indexes, View: in.View(r.name), Before: in == before}
	}
	a, b := before.rels, after.rels
	for len(a) > 0 || len(b) > 0 {
		// order < 0: a[0] is before's alone; > 0: b[0] is after's alone.
		var order int
		switch {
		case len(b) == 0:
			order = -1
		case len(a) == 0:
			order = 1
		case a[0].name != b[0].name:
			order = strings.Compare(a[0].name, b[0].name)
		}
		switch {
		case order < 0:
			out = append(out, held(&a[0], before))
			a = a[1:]
		case order > 0:
			out = append(out, held(&b[0], after))
			b = b[1:]
		default:
			if !sameList(a[0].indexes, b[0].indexes) || viewApart(&a[0]) || viewApart(&b[0]) {
				out = append(out, held(&a[0], before), held(&b[0], after))
			}
			a, b = a[1:], b[1:]
		}
	}
	return out
}

// viewsApart appends to out the views only one of two name-ordered lists
// holds. A name both lists carry with different views yields both.
func viewsApart(out, a, b []*View) []*View {
	if sameList(a, b) {
		return out
	}
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			a, b = a[1:], b[1:]
		case a[0].Name <= b[0].Name:
			out, a = append(out, a[0]), a[1:]
		default:
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// relOfID returns the position of the relation an index ID names, and
// whether it is there. Index.buildID writes the table between the first
// ':' and the first '(' after it, and identifiers contain neither.
func (c *Configuration) relOfID(id string) (int, bool) {
	colon := strings.IndexByte(id, ':')
	if colon < 0 {
		return 0, false
	}
	paren := strings.IndexByte(id[colon+1:], '(')
	if paren < 0 {
		return 0, false
	}
	return c.rel(id[colon+1 : colon+1+paren])
}

// findIndex returns the position id has, or would take, in an ID-sorted
// list, and whether it is there.
func findIndex(list []*Index, id string) (int, bool) {
	return slices.BinarySearchFunc(list, id, func(ix *Index, id string) int { return strings.Compare(ix.ID(), id) })
}

// insertAt and removeAt build the changed list in fresh storage: the list
// they are given may be shared and is left as it was.
func insertAt[T any](list []T, pos int, x T) []T {
	out := make([]T, 0, len(list)+1)
	return append(append(append(out, list[:pos]...), x), list[pos:]...)
}

func removeAt[T any](list []T, pos int) []T {
	out := make([]T, 0, len(list)-1)
	return append(append(out, list[:pos]...), list[pos+1:]...)
}

func clusteredIn(list []*Index) *Index {
	for _, ix := range list {
		if ix.Clustered {
			return ix
		}
	}
	return nil
}

// AddIndex inserts ix; duplicate definitions are collapsed. Adding a
// clustered index when the table already has one demotes the new index to
// non-clustered (two clustered indexes per table are impossible).
func (c *Configuration) AddIndex(ix *Index) *Index {
	r, found := c.rel(ix.Table)
	if !found {
		c.rels = slices.Insert(c.rels, r, relation{name: ix.Table, indexes: []*Index{ix}})
		return ix
	}
	list := c.rels[r].indexes
	if ix.Clustered {
		if existing := clusteredIn(list); existing != nil && existing.ID() != ix.ID() {
			ix = ix.Clone()
			ix.Clustered = false
			ix.id = ix.buildID()
		}
	}
	pos, found := findIndex(list, ix.ID())
	if found {
		old := list[pos]
		// Keep the Required flag if either copy carries it.
		if !ix.Required || old.Required {
			return old
		}
		list = slices.Clone(list)
		list[pos] = ix
	} else {
		list = insertAt(list, pos, ix)
	}
	c.rels[r].indexes = list
	return ix
}

// RemoveIndex deletes the index with the given ID; required indexes are
// never removed. Reports whether a removal happened.
func (c *Configuration) RemoveIndex(id string) bool {
	r, found := c.relOfID(id)
	if !found {
		return false
	}
	list := c.rels[r].indexes
	pos, found := findIndex(list, id)
	if !found || list[pos].Required {
		return false
	}
	if len(list) == 1 {
		c.rels = slices.Delete(c.rels, r, r+1)
	} else {
		c.rels[r].indexes = removeAt(list, pos)
	}
	return true
}

// HasIndex reports whether an index with this ID is present.
func (c *Configuration) HasIndex(id string) bool { return c.Index(id) != nil }

// Index returns the index with the given ID, or nil.
func (c *Configuration) Index(id string) *Index {
	if r, found := c.relOfID(id); found {
		if pos, found := findIndex(c.rels[r].indexes, id); found {
			return c.rels[r].indexes[pos]
		}
	}
	return nil
}

// findView returns the position name has, or would take, in the
// name-sorted view list, and whether it is there.
func (c *Configuration) findView(name string) (int, bool) {
	return slices.BinarySearchFunc(c.views, name, func(v *View, name string) int { return strings.Compare(v.Name, name) })
}

// AddView inserts a view definition, deduplicating by signature. It
// returns the canonical view instance present in the configuration: the
// one already there, v itself, or — when v does not carry a sealed
// signature (a hand-built or cloned definition) — a sealed copy of it, so
// no view inside a configuration ever rebuilds its signature.
func (c *Configuration) AddView(v *View) *View {
	sig := v.Signature()
	if existing := c.ViewBySignature(sig); existing != nil {
		return existing
	}
	if v.sig == "" {
		sealed := *v
		sealed.sig = sig
		v = &sealed
	}
	pos, found := c.findView(v.Name)
	if found {
		c.views = slices.Clone(c.views)
		c.views[pos] = v
	} else {
		c.views = insertAt(c.views, pos, v)
	}
	return v
}

// RemoveView deletes the view and cascades to all indexes defined over it.
// Reports whether the view existed.
func (c *Configuration) RemoveView(name string) bool {
	pos, found := c.findView(name)
	if !found {
		return false
	}
	c.views = removeAt(c.views, pos)
	if r, found := c.rel(name); found {
		c.rels = slices.Delete(c.rels, r, r+1)
	}
	return true
}

// View returns the named view, or nil.
func (c *Configuration) View(name string) *View {
	if pos, found := c.findView(name); found {
		return c.views[pos]
	}
	return nil
}

// ViewBySignature returns the view with the given definition, or nil.
func (c *Configuration) ViewBySignature(sig string) *View {
	for _, v := range c.views {
		if v.Signature() == sig {
			return v
		}
	}
	return nil
}

// Views returns all views sorted by name. The slice is shared with the
// configuration and its clones: callers must not write to it.
func (c *Configuration) Views() []*View { return c.views }

// Indexes returns all indexes sorted by ID, in a slice of the caller's.
func (c *Configuration) Indexes() []*Index {
	out := make([]*Index, 0, c.NumIndexes())
	for i := range c.rels {
		out = append(out, c.rels[i].indexes...)
	}
	slices.SortFunc(out, func(a, b *Index) int { return strings.Compare(a.ID(), b.ID()) })
	return out
}

// IndexesOn returns all indexes over the named table or view, sorted by
// ID. The slice is shared with the configuration and its clones: callers
// must not write to it.
func (c *Configuration) IndexesOn(table string) []*Index {
	if r, found := c.rel(table); found {
		return c.rels[r].indexes
	}
	return nil
}

// ClusteredOn returns the clustered index on the table/view, or nil.
func (c *Configuration) ClusteredOn(table string) *Index {
	return clusteredIn(c.IndexesOn(table))
}

// NumIndexes returns the number of indexes.
func (c *Configuration) NumIndexes() int {
	n := 0
	for i := range c.rels {
		n += len(c.rels[i].indexes)
	}
	return n
}

// NumViews returns the number of views.
func (c *Configuration) NumViews() int { return len(c.views) }

// Fingerprint is a canonical identity for the whole configuration: the
// sorted IDs of its indexes and "v:" plus the signatures of its views,
// joined by "|". The search knows a configuration by its Digest and
// confirms a match with Equal; the string is what trace sinks record.
//
// It is written in one pass into one buffer of the exact size, in sorted
// order without a sort over the indexes (fingerprintParts).
func (c *Configuration) Fingerprint() string {
	n := 3 * len(c.views)
	for i := range c.rels {
		for _, ix := range c.rels[i].indexes {
			n += len(ix.ID()) + 1
		}
	}
	for _, v := range c.views {
		n += len(v.Signature())
	}
	if n == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n - 1)
	var buf [16]*View
	c.fingerprintParts(buf[:0], func(s string) { b.WriteString(s) })
	return b.String()
}

// Digest is a hash of the bytes Fingerprint writes, computed without
// building the string: configurations with equal fingerprints have equal
// digests, and Equal tells apart the rare two that share a digest but not
// a fingerprint. The seed is the process's, so a digest is not stable
// across runs and must never be recorded.
func (c *Configuration) Digest() uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	var buf [16]*View
	c.fingerprintParts(buf[:0], func(s string) { h.WriteString(s) })
	return h.Sum64()
}

var digestSeed = maphash.MakeSeed()

// fingerprintParts hands write the pieces of the fingerprint in order:
// every "cix:" ID sorts before every "ix:" ID and both before "v:",
// relations are kept in name order and each relation's list in ID order,
// and an ID is "ix:<table>(" (or "cix:") followed by its columns, where
// "(" sorts below every byte of an identifier, so walking the relations
// in order hands each kind's IDs over in order. Only the views'
// signatures need sorting, into buf when the name order is not already
// theirs.
func (c *Configuration) fingerprintParts(buf []*View, write func(string)) {
	views := c.views
	if !slices.IsSortedFunc(views, compareSignatures) {
		views = append(buf, views...)
		slices.SortFunc(views, compareSignatures)
	}
	wrote := false
	sep := func() {
		if wrote {
			write("|")
		}
		wrote = true
	}
	for _, clustered := range [2]bool{true, false} {
		for i := range c.rels {
			for _, ix := range c.rels[i].indexes {
				if ix.Clustered == clustered {
					sep()
					write(ix.ID())
				}
			}
		}
	}
	for _, v := range views {
		sep()
		write("v:")
		write(v.Signature())
	}
}

func compareSignatures(a, b *View) int { return strings.Compare(a.Signature(), b.Signature()) }

// Equal reports whether c and o have the same fingerprint: the same index
// IDs over every relation and the same view signatures. A relation whose
// list is one list on both sides is equal without a look at its indexes.
func (c *Configuration) Equal(o *Configuration) bool {
	if c == o {
		return true
	}
	if len(c.rels) != len(o.rels) || len(c.views) != len(o.views) {
		return false
	}
	for i := range c.rels {
		a, b := c.rels[i].indexes, o.rels[i].indexes
		if c.rels[i].name != o.rels[i].name || len(a) != len(b) {
			return false
		}
		if sameList(a, b) {
			continue
		}
		for k := range a {
			if a[k] != b[k] && a[k].ID() != b[k].ID() {
				return false
			}
		}
	}
	if sameList(c.views, o.views) {
		return true
	}
	// Signatures are unique within a configuration (AddView), so with as
	// many views on both sides, finding each of c's in o is set equality.
	for _, v := range c.views {
		if o.ViewBySignature(v.Signature()) == nil {
			return false
		}
	}
	return true
}

// String renders a compact human-readable description.
func (c *Configuration) String() string {
	return fmt.Sprintf("config{%d indexes, %d views}", c.NumIndexes(), len(c.views))
}

// Diff returns the IDs of indexes and names of views present in c but not
// in other. It reads only what the two hold apart: a relation whose index
// list is the same list in both is skipped whole, and the views only when
// the view lists differ.
func (c *Configuration) Diff(other *Configuration) (indexIDs, viewNames []string) {
	theirs := other.rels
	for i := range c.rels {
		r := &c.rels[i]
		for len(theirs) > 0 && theirs[0].name < r.name {
			theirs = theirs[1:]
		}
		var list []*Index
		if len(theirs) > 0 && theirs[0].name == r.name {
			list = theirs[0].indexes
		}
		if sameList(r.indexes, list) {
			continue
		}
		for _, ix := range r.indexes {
			id := ix.ID()
			if _, found := findIndex(list, id); !found {
				indexIDs = append(indexIDs, id)
			}
		}
	}
	if !sameList(c.views, other.views) {
		for _, v := range c.views {
			if other.ViewBySignature(v.Signature()) == nil {
				viewNames = append(viewNames, v.Name)
			}
		}
	}
	sort.Strings(indexIDs)
	return indexIDs, viewNames
}
