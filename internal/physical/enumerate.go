package physical

import (
	"repro/internal/sqlx"
)

// EnumerateOptions tunes transformation enumeration.
type EnumerateOptions struct {
	// WidthOf supplies base-column widths for view merging; required when
	// the configuration contains views.
	WidthOf func(sqlx.ColRef) int
	// EstimateRows supplies the cardinality of a merged view (§3.3.1: the
	// optimizer's cardinality module). With nil, merged views keep EstRows
	// at zero and the caller estimates them.
	EstimateRows func(*View) int64
	// NoViews suppresses view transformations (index-only tuning).
	NoViews bool
	// HeapTables lists base tables stored as heaps (promotion to
	// clustered applies only there, since clustered-PK tables always
	// carry a required clustered index).
	HeapTables map[string]bool
}

// Enumerator generates the transformations of §3.1 — index merges (both
// orders), splits, prefixes, promotions, removals, view merges and view
// removals; required (constraint) indexes are untouchable — for the
// configurations of one search session.
//
// A transformation rewrites the index list of one relation, or two views,
// so the transformations of a configuration are built in chunks, one per
// relation and one per view pair, and each chunk is a function of the
// lists and views it reads. Configuration's lists are copy-on-write: when
// a configuration holds the very list (sameList) its parent enumerated
// from, the parent's chunk is the one a fresh enumeration would build, and
// it is taken as it is. Reuse is decided from the two configurations
// alone, never from how one was derived from the other.
//
// An Enumerator is not safe for concurrent use. What it returns is sealed
// and never written again, so enumerations and their transformations may
// be read from any goroutine.
type Enumerator struct {
	opts EnumerateOptions
	// merged memoizes MergeViews by its two inputs, nil for a pair that
	// does not merge: the same two views meet again in every descendant of
	// the configuration that first held both. The key is the pair of view
	// values, not of signatures — a merged view lists its columns in its
	// inputs' column order, which a signature does not record. A merged
	// view enters the memo complete (named, signature sealed, EstRows
	// estimated) and is never written afterwards.
	merged map[[2]*View]*View
}

// NewEnumerator returns an enumerator with an empty memo.
func NewEnumerator(opts EnumerateOptions) *Enumerator {
	return &Enumerator{opts: opts, merged: map[[2]*View]*View{}}
}

// Enumeration is every transformation applicable to one configuration.
type Enumeration struct {
	// Trans lists them in a deterministic order: relations in name order,
	// each relation's unary and pairwise index transformations in the ID
	// order of its list; then, per view in name order, its removal and its
	// merges with every later view. Every ID is sealed.
	Trans []*Transformation
	// Shared counts the transformations of Trans that were taken from the
	// parent enumeration; the other len(Trans) − Shared were built.
	Shared int

	rels  []relChunk
	views []viewChunk
}

// relChunk is Trans[lo:hi], the index transformations of one relation, with
// the inputs they were built from.
type relChunk struct {
	list   []*Index
	isView bool
	lo, hi int
}

// viewChunk is the view transformations led by one view, with the inputs
// they were built from.
type viewChunk struct {
	v      *View
	list   []*Index // the indexes over v
	remove *Transformation
	// merges has one entry per later view of the configuration, in name
	// order: the merge of v with it, or nil where the two do not merge.
	merges []*Transformation
}

// sameList reports whether a and b are one list: the same length over the
// same storage. Lists inside configurations are never written after they
// are installed, so one list is one content.
func sameList[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Enumerate is the enumeration of a configuration that has no parent.
func Enumerate(c *Configuration, opts EnumerateOptions) []*Transformation {
	return NewEnumerator(opts).Enumerate(c, nil).Trans
}

// Enumerate generates every transformation applicable to c. parent, when
// not nil, is an earlier enumeration by e — usually of the configuration c
// was derived from, though any will do: it changes what is built, never
// what is returned.
func (e *Enumerator) Enumerate(c *Configuration, parent *Enumeration) *Enumeration {
	en := &Enumeration{}
	if parent == nil {
		parent = &Enumeration{}
	}
	en.Trans = make([]*Transformation, 0, len(parent.Trans))

	views := c.Views()
	if e.opts.NoViews {
		views = nil
	}
	en.views = make([]viewChunk, len(views))
	en.rels = make([]relChunk, len(c.rels))
	for i, r := range c.rels {
		at, isView := c.findView(r.name)
		if isView && !e.opts.NoViews {
			en.views[at].list = r.indexes
		}
		ch := &en.rels[i]
		*ch = relChunk{list: r.indexes, isView: isView, lo: len(en.Trans)}
		if from := parent.chunkOver(ch.list, isView); from != nil {
			en.Trans = append(en.Trans, parent.Trans[from.lo:from.hi]...)
			en.Shared += from.hi - from.lo
		} else {
			en.Trans = e.indexTransformations(en.Trans, r, isView)
		}
		ch.hi = len(en.Trans)
	}

	// from[i] is where parent.views has c's i-th view with the index list it
	// has in c, or -1. Both view lists are in name order.
	from := make([]int, len(views))
	merges := make([]*Transformation, len(views)*(len(views)-1)/2)
	p := 0
	for i, v := range views {
		ch := &en.views[i]
		if ch.v = v; ch.list == nil {
			ch.list = c.IndexesOn(v.Name) // none, or under a name in another case
		}
		for p < len(parent.views) && parent.views[p].v.Name < v.Name {
			p++
		}
		from[i] = -1
		if p < len(parent.views) && parent.views[p].v == v && sameList(parent.views[p].list, ch.list) {
			from[i] = p
		}
	}
	for i := range en.views {
		ch := &en.views[i]
		if from[i] >= 0 {
			ch.remove = parent.views[from[i]].remove
			en.Shared++
		} else {
			ch.remove = sealed(&Transformation{Kind: TransRemoveView, V1: ch.v})
		}
		en.Trans = append(en.Trans, ch.remove)
		if e.opts.WidthOf == nil {
			continue
		}
		ch.merges, merges = merges[:len(views)-i-1], merges[len(views)-i-1:]
		for k := range ch.merges {
			j := i + 1 + k
			if from[i] >= 0 && from[j] >= 0 {
				if ch.merges[k] = parent.views[from[i]].merges[from[j]-from[i]-1]; ch.merges[k] != nil {
					en.Shared++
				}
			} else {
				ch.merges[k] = e.mergeTransformation(ch, &en.views[j])
			}
			if ch.merges[k] != nil {
				en.Trans = append(en.Trans, ch.merges[k])
			}
		}
	}
	return en
}

// chunkOver returns en's relation chunk built from the given inputs, or
// nil.
func (en *Enumeration) chunkOver(list []*Index, isView bool) *relChunk {
	for i := range en.rels {
		if ch := &en.rels[i]; sameList(ch.list, list) && ch.isView == isView {
			return ch
		}
	}
	return nil
}

func sealed(t *Transformation) *Transformation {
	t.id = t.buildID()
	return t
}

// indexTransformations appends the index transformations of relation r.
func (e *Enumerator) indexTransformations(out []*Transformation, r relation, isView bool) []*Transformation {
	// Promotion to clustered applies to views and heap tables that have no
	// clustered index yet.
	promotable := (isView || e.opts.HeapTables[r.name]) && clusteredIn(r.indexes) == nil
	for i, i1 := range r.indexes {
		if i1.Required {
			continue
		}
		if !i1.Clustered {
			for n := 1; n <= len(i1.Keys); n++ {
				if p := PrefixIndex(i1, n); p != nil {
					out = append(out, sealed(&Transformation{Kind: TransPrefixIndex, I1: i1, PrefixLen: n, NewIdx: []*Index{p}}))
				}
			}
		}
		if promotable {
			out = append(out, sealed(&Transformation{Kind: TransPromoteClustered, I1: i1, NewIdx: []*Index{PromoteToClustered(i1)}}))
		}
		out = append(out, sealed(&Transformation{Kind: TransRemoveIndex, I1: i1}))

		// Binary: merges and splits with every later index.
		for _, i2 := range r.indexes[i+1:] {
			if i2.Required || i1.Clustered || i2.Clustered {
				continue
			}
			// A merge whose result equals one of its inputs still removes
			// the other index, so it is kept; it relaxes differently from
			// plain removal because the survivor is recorded as replacing
			// both.
			for _, pair := range [2][2]*Index{{i1, i2}, {i2, i1}} {
				if m := MergeIndexes(pair[0], pair[1]); m != nil {
					out = append(out, sealed(&Transformation{Kind: TransMergeIndexes, I1: pair[0], I2: pair[1], NewIdx: []*Index{m}}))
				}
			}
			if common, r1, r2 := SplitIndexes(i1, i2); common != nil {
				nw := []*Index{common}
				if r1 != nil {
					nw = append(nw, r1)
				}
				if r2 != nil {
					nw = append(nw, r2)
				}
				out = append(out, sealed(&Transformation{Kind: TransSplitIndexes, I1: i1, I2: i2, NewIdx: nw}))
			}
		}
	}
	return out
}

// mergeTransformation builds the merge of the views of a and b with the
// indexes over both promoted onto the merged view, or returns nil when the
// two do not merge.
func (e *Enumerator) mergeTransformation(a, b *viewChunk) *Transformation {
	key := [2]*View{a.v, b.v}
	vm, known := e.merged[key]
	if !known {
		if vm = MergeViews(a.v, b.v, e.opts.WidthOf); vm != nil && e.opts.EstimateRows != nil {
			vm.EstRows = e.opts.EstimateRows(vm)
		}
		e.merged[key] = vm
	}
	if vm == nil {
		return nil
	}
	tr := &Transformation{Kind: TransMergeViews, V1: a.v, V2: b.v, VM: vm}
	hasClustered := false
	for _, src := range [2]*viewChunk{a, b} {
		for _, ix := range src.list {
			if p := PromoteIndexToView(ix, src.v, vm); p != nil {
				tr.Promoted = append(tr.Promoted, p)
				hasClustered = hasClustered || p.Clustered
			}
		}
	}
	// A materialized view needs a clustered index; ensure one survives
	// promotion.
	if keys := vm.AllColumnNames(); !hasClustered && len(keys) > 0 {
		tr.Promoted = append(tr.Promoted, NewIndex(vm.Name, keys[:1], keys[1:], true))
	}
	return sealed(tr)
}
