package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
	"repro/internal/physical"
)

// enumGoldenLine is one search node as the enumeration goldens store it:
// its position in the pool, its configuration, and a digest of its ordered
// transformation list (transIdentity of each, one per line).
type enumGoldenLine struct {
	Node   int    `json:"node"`
	Config string `json:"config"`
	Trans  int    `json:"trans"`
	SHA256 string `json:"sha256"`
}

func enumLine(i int, n *searchNode) enumGoldenLine {
	cfg := sha256.Sum256([]byte(n.eval.Config.Fingerprint()))
	h := sha256.New()
	for _, tr := range n.enum.Trans {
		h.Write([]byte(transIdentity(tr)))
		h.Write([]byte{'\n'})
	}
	return enumGoldenLine{Node: i, Config: hex.EncodeToString(cfg[:8]), Trans: len(n.enum.Trans), SHA256: hex.EncodeToString(h.Sum(nil))}
}

// nodeEnumerations rebuilds a finished session's pool on tn, a tuner that
// has not searched: the root over the optimal configuration, then one child
// per eval event, created from the node the event names as parent by
// applying the transformations the event names as chosen — the calls, in
// the order, that the search made of newSearchNode.
func nodeEnumerations(t testing.TB, tn *Tuner, optimal *EvaluatedConfig, trace []obs.Event) (lines []any, nodes []*searchNode) {
	t.Helper()
	fp := optimal.Config.Fingerprint()
	root, err := tn.newSearchNode(optimal, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	byFP := map[string]*searchNode{fp: root}
	nodes = append(nodes, root)
	for _, ev := range trace {
		if ev.Type != obs.EvEval {
			continue
		}
		parent := byFP[ev.Fields["parent_fp"].(string)]
		if parent == nil {
			t.Fatalf("eval event names a parent the replay has not built: %v", ev.Fields)
		}
		cfg := parent.eval.Config
		for _, id := range ev.Fields["chosen"].([]string) {
			var chosen *physical.Transformation
			for _, tr := range parent.enum.Trans {
				if tr.ID() == id {
					chosen = tr
				}
			}
			if chosen == nil {
				t.Fatalf("transformation %s is not enumerated at its node", id)
			}
			cfg = chosen.Apply(cfg)
		}
		if fp = cfg.Fingerprint(); fp != ev.Fields["fp"].(string) {
			t.Fatal("a replayed step reaches another configuration than the session did")
		}
		child, err := tn.newSearchNode(&EvaluatedConfig{Config: cfg}, parent, 0)
		if err != nil {
			t.Fatal(err)
		}
		byFP[fp] = child
		nodes = append(nodes, child)
	}
	for i, n := range nodes {
		lines = append(lines, enumLine(i, n))
	}
	return lines, nodes
}

// TestEnumerationMatchesParentGoldens is the enumeration path's contract.
// Both goldens were captured at the commit before enumeration became
// incremental, when every node enumerated every relation and merged every
// view pair itself: every node of both golden sessions keeps its
// transformations — IDs, order (ranking ties break on it), added and
// promoted indexes, merged views and their cardinalities. Enumeration runs
// on the serial main line, so one replay stands for every Parallelism; the
// sessions' traces are held to their own goldens at 1 and 8 elsewhere.
func TestEnumerationMatchesParentGoldens(t *testing.T) {
	spine := runSpineSession(t, 1)
	_, updView, updViewTrace := runUpdViewSession(t, Options{Parallelism: 1})
	for _, s := range []struct {
		golden  string
		tuner   *Tuner
		optimal *EvaluatedConfig
		trace   []obs.Event
	}{
		{"spine_enum.golden.jsonl", tpchTuner(t, Options{NoViews: true}), spine.res.Optimal, spine.trace},
		{"updview_enum.golden.jsonl", benchTuner(t, updViewSeed, 0.35, Options{}), updView.Optimal, updViewTrace},
	} {
		s.tuner.shadow = true
		docs, _ := nodeEnumerations(t, s.tuner, s.optimal, s.trace)
		got := bytes.Split(bytes.TrimSpace(jsonLines(t, docs)), []byte("\n"))
		want := goldenLines(t, s.golden)
		if len(got) != len(want) {
			t.Fatalf("%s: %d nodes, golden has %d", s.golden, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: node %d diverged:\n got  %s\n want %s", s.golden, i, got[i], want[i])
			}
		}
	}
}
