package physical

import (
	"fmt"
	"strings"
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

	// id caches the canonical identity. The enumerator seals it as it builds
	// the transformation; the search then reads the ID every iteration for
	// penalty caching and dedup without rebuilding the string. Hand-built
	// transformations with an empty id recompute per call (no lazy store —
	// that would race once the transformation is shared across workers).
	id string
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

// RemovedIndexIDs returns the IDs of indexes the transformation removes
// from its source configuration (directly or by view-removal cascade,
// given that cascade is resolved at Apply time).
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

// Apply produces the relaxed configuration. For view transformations the
// affected views' indexes cascade per §3.1.2.
func (t *Transformation) Apply(c *Configuration) *Configuration {
	n := c.Clone()
	switch t.Kind {
	case TransMergeIndexes, TransSplitIndexes, TransPrefixIndex:
		n.RemoveIndex(t.I1.ID())
		if t.I2 != nil {
			n.RemoveIndex(t.I2.ID())
		}
		for _, ix := range t.NewIdx {
			n.AddIndex(ix)
		}
	case TransPromoteClustered:
		n.RemoveIndex(t.I1.ID())
		for _, ix := range t.NewIdx {
			n.AddIndex(ix)
		}
	case TransRemoveIndex:
		n.RemoveIndex(t.I1.ID())
	case TransMergeViews:
		n.RemoveView(t.V1.Name)
		n.RemoveView(t.V2.Name)
		vm := n.AddView(t.VM)
		for _, ix := range t.Promoted {
			// Re-target in case signature dedup picked an existing name.
			if ix.Table != vm.Name {
				ix = ix.Clone()
				ix.Table = vm.Name
				ix.id = ix.buildID()
			}
			n.AddIndex(ix)
		}
	case TransRemoveView:
		n.RemoveView(t.V1.Name)
	}
	return n
}
