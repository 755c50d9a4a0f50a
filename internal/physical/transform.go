package physical

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// TransKind identifies one of the paper's relaxation transformations.
type TransKind int

// Transformation kinds (§3.1).
const (
	TransMergeIndexes TransKind = iota
	TransSplitIndexes
	TransPrefixIndex
	TransPromoteClustered
	TransRemoveIndex
	TransMergeViews
	TransRemoveView
)

func (k TransKind) String() string {
	switch k {
	case TransMergeIndexes:
		return "merge-indexes"
	case TransSplitIndexes:
		return "split-indexes"
	case TransPrefixIndex:
		return "prefix-index"
	case TransPromoteClustered:
		return "promote-clustered"
	case TransRemoveIndex:
		return "remove-index"
	case TransMergeViews:
		return "merge-views"
	case TransRemoveView:
		return "remove-view"
	default:
		return "unknown"
	}
}

// Transformation relaxes a configuration: it replaces one or two physical
// structures with smaller (generally less efficient) ones. Applying a
// transformation never mutates the source configuration.
type Transformation struct {
	Kind TransKind

	// Index transformations.
	I1, I2    *Index   // inputs (I2 nil for unary transformations)
	PrefixLen int      // for TransPrefixIndex
	NewIdx    []*Index // indexes the transformation adds

	// View transformations.
	V1, V2   *View    // inputs
	VM       *View    // merged view, shared by every transformation merging V1 and V2
	Promoted []*Index // indexes promoted from V1/V2 onto VM
	// promotedFrom is aligned with Promoted: the index of V1 or V2 each
	// was promoted from, nil for the clustered index the merge adds when
	// no promoted index is clustered (PromotionOf).
	promotedFrom []*Index

	// id caches the canonical identity. The enumerator seals it as it builds
	// the transformation; the search then reads the ID every iteration for
	// penalty caching and dedup without rebuilding the string. Hand-built
	// transformations with an empty id recompute per call (no lazy store —
	// that would race once the transformation is shared across workers).
	id string
	// retarget holds the promoted indexes of the last application whose
	// merged view landed on a view under another name (promotedOnto). It
	// is published whole, as Index.shape is, since a transformation is
	// applied on every penalty-estimation worker.
	retarget atomic.Pointer[retargeted]
}

// ID is a stable identity for caching penalties across iterations.
func (t *Transformation) ID() string {
	if t.id != "" {
		return t.id
	}
	return t.buildID()
}

func (t *Transformation) buildID() string {
	var sb strings.Builder
	sb.WriteString(t.Kind.String())
	if t.I1 != nil {
		sb.WriteString("|" + t.I1.ID())
	}
	if t.I2 != nil {
		sb.WriteString("|" + t.I2.ID())
	}
	if t.Kind == TransPrefixIndex {
		fmt.Fprintf(&sb, "|n=%d", t.PrefixLen)
	}
	if t.V1 != nil {
		sb.WriteString("|" + t.V1.Signature())
	}
	if t.V2 != nil {
		sb.WriteString("|" + t.V2.Signature())
	}
	return sb.String()
}

// SplitParts returns what SplitIndexes(I1, I2) returns for a split the
// enumeration built: the common index and the residuals, each the very
// index NewIdx holds. NewIdx is the common index followed by each residual
// that exists, and a residual exists where the common key is shorter than
// its index's.
func (t *Transformation) SplitParts() (common, r1, r2 *Index) {
	common, rest := t.NewIdx[0], t.NewIdx[1:]
	if len(common.Keys) != len(t.I1.Keys) {
		r1, rest = rest[0], rest[1:]
	}
	if len(common.Keys) != len(t.I2.Keys) {
		r2 = rest[0]
	}
	return common, r1, r2
}

func (t *Transformation) String() string {
	switch t.Kind {
	case TransMergeIndexes:
		return fmt.Sprintf("merge(%s, %s) -> %s", t.I1, t.I2, t.NewIdx[0])
	case TransSplitIndexes:
		return fmt.Sprintf("split(%s, %s) -> %d indexes", t.I1, t.I2, len(t.NewIdx))
	case TransPrefixIndex:
		return fmt.Sprintf("prefix(%s, %d) -> %s", t.I1, t.PrefixLen, t.NewIdx[0])
	case TransPromoteClustered:
		return fmt.Sprintf("promote(%s)", t.I1)
	case TransRemoveIndex:
		return fmt.Sprintf("remove(%s)", t.I1)
	case TransMergeViews:
		return fmt.Sprintf("merge-views(%s, %s) -> %s", t.V1.Name, t.V2.Name, t.VM.Name)
	case TransRemoveView:
		return fmt.Sprintf("remove-view(%s)", t.V1.Name)
	default:
		return "transformation"
	}
}

// RemovedIndexIDs returns the IDs of the indexes the transformation takes
// as inputs (I1, I2). It leaves out the indexes of a removed or merged
// view: Apply drops those in the §3.1.2 cascade, and RemovedViewNames
// names their views.
func (t *Transformation) RemovedIndexIDs() []string {
	var out []string
	if t.I1 != nil {
		out = append(out, t.I1.ID())
	}
	if t.I2 != nil {
		out = append(out, t.I2.ID())
	}
	return out
}

// RemovedViewNames returns the names of views the transformation removes.
func (t *Transformation) RemovedViewNames() []string {
	var out []string
	switch t.Kind {
	case TransMergeViews:
		out = append(out, t.V1.Name, t.V2.Name)
	case TransRemoveView:
		out = append(out, t.V1.Name)
	}
	return out
}

// Apply produces the relaxed configuration in a configuration of its own.
// For view transformations the affected views' indexes cascade per
// §3.1.2.
func (t *Transformation) Apply(c *Configuration) *Configuration {
	return t.ApplyTo(&Configuration{rels: make([]relation, 0, len(c.rels))}, c)
}

// ApplyTo writes c relaxed by t into dst and returns dst. It reuses dst's
// relation slice and keeps nothing else dst held; c is left as it was. A
// caller that relaxes many configurations it reads and drops (a §3.3.2
// bound) applies each into one dst.
func (t *Transformation) ApplyTo(dst, c *Configuration) *Configuration {
	dst.rels = append(dst.rels[:0], c.rels...)
	dst.views = c.views
	switch t.Kind {
	case TransMergeIndexes, TransSplitIndexes, TransPrefixIndex:
		dst.RemoveIndex(t.I1.ID())
		if t.I2 != nil {
			dst.RemoveIndex(t.I2.ID())
		}
		for _, ix := range t.NewIdx {
			dst.AddIndex(ix)
		}
	case TransPromoteClustered:
		dst.RemoveIndex(t.I1.ID())
		for _, ix := range t.NewIdx {
			dst.AddIndex(ix)
		}
	case TransRemoveIndex:
		dst.RemoveIndex(t.I1.ID())
	case TransMergeViews:
		dst.RemoveView(t.V1.Name)
		dst.RemoveView(t.V2.Name)
		vm := dst.AddView(t.VM)
		for _, ix := range t.promotedOnto(vm.Name) {
			dst.AddIndex(ix)
		}
	case TransRemoveView:
		dst.RemoveView(t.V1.Name)
	}
	return dst
}

// PromotionOf returns the index of Promoted that the enumeration promoted
// from ix, an index of V1 or V2, or nil when ix did not promote onto VM.
func (t *Transformation) PromotionOf(ix *Index) *Index {
	id := ix.ID()
	for k, from := range t.promotedFrom {
		if from != nil && (from == ix || from.ID() == id) {
			return t.Promoted[k]
		}
	}
	return nil
}

// retargeted is a view merge's promoted indexes moved onto the view a
// configuration already held under another name when the merged view
// landed there (AddView deduplicates by signature).
type retargeted struct {
	view    string
	indexes []*Index
}

// promotedOnto returns the merge's promoted indexes over the named view:
// Promoted itself over VM, and over another name copies re-targeted to it,
// built once per name in a row, so each copy keeps the shape a sizer gave
// it from one application of t to the next.
func (t *Transformation) promotedOnto(view string) []*Index {
	if view == t.VM.Name {
		return t.Promoted
	}
	if r := t.retarget.Load(); r != nil && r.view == view {
		return r.indexes
	}
	out := make([]*Index, len(t.Promoted))
	for i, ix := range t.Promoted {
		out[i] = ix.Clone()
		out[i].Table = view
		out[i].id = out[i].buildID()
	}
	t.retarget.Store(&retargeted{view: view, indexes: out})
	return out
}
