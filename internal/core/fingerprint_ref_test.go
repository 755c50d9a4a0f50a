package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/sqlx"
)

// refFingerprint is Configuration.Fingerprint as it was before it was
// written in one pass: every ID collected, sorted and joined. It is kept
// verbatim but for reading the indexes through Indexes(), the relations
// being private to the physical package.
func refFingerprint(c *physical.Configuration) string {
	ids := make([]string, 0, c.NumIndexes()+c.NumViews())
	for _, ix := range c.Indexes() {
		ids = append(ids, ix.ID())
	}
	for _, v := range c.Views() {
		ids = append(ids, "v:"+v.Signature())
	}
	sort.Strings(ids)
	return strings.Join(ids, "|")
}

// TestFingerprintMatchesReference holds the one-pass Fingerprint to the
// sort-and-join one on every configuration the spine and update+view
// sessions evaluate, every configuration one transformation away from
// those, and built cases the sessions may not reach: tables whose names
// are prefixes of each other, clustered and non-clustered indexes on one
// table and across tables, views whose signature order is not their name
// order, and the empty configuration.
func TestFingerprintMatchesReference(t *testing.T) {
	check := func(label string, c *physical.Configuration) {
		t.Helper()
		if got, want := c.Fingerprint(), refFingerprint(c); got != want {
			t.Fatalf("%s: Fingerprint\n %q\nreference\n %q", label, got, want)
		}
	}

	col := func(table, name string) physical.ViewColumn {
		return physical.BaseViewColumn(sqlx.ColRef{Table: table, Column: name}, 4)
	}
	built := physical.NewConfiguration()
	check("empty", built)
	built.AddIndex(physical.NewIndex("t10", []string{"a"}, nil, false))
	check("one index", built)
	built.AddIndex(physical.NewIndex("t1", []string{"b"}, []string{"c"}, false))
	built.AddIndex(physical.NewIndex("t10", []string{"b"}, nil, true))
	built.AddIndex(physical.NewIndex("t1", []string{"a"}, nil, false))
	built.AddIndex(physical.NewIndex("t1", []string{"c"}, nil, true))
	built.AddIndex(physical.NewIndex("t1_x", []string{"a"}, nil, true))
	check("t1, t1_x and t10, clustered and not", built)
	built.AddView(&physical.View{Name: "v1", Tables: []string{"t1"}, Cols: []physical.ViewColumn{col("t1", "z")}})
	check("one view", built)
	built.AddView(&physical.View{Name: "v2", Tables: []string{"t1"}, Cols: []physical.ViewColumn{col("t1", "a")}})
	built.AddView(&physical.View{Name: "v3", Tables: []string{"t10"}, Cols: []physical.ViewColumn{col("t10", "m")}})
	built.AddIndex(physical.NewIndex("v2", []string{"a"}, nil, true))
	built.AddIndex(physical.NewIndex("v1", []string{"z"}, nil, false))
	check("views out of signature order, with indexes", built)
	views := physical.NewConfiguration()
	views.AddView(&physical.View{Name: "v2", Tables: []string{"t1"}, Cols: []physical.ViewColumn{col("t1", "a")}})
	views.AddView(&physical.View{Name: "v1", Tables: []string{"t1"}, Cols: []physical.ViewColumn{col("t1", "z")}})
	check("views only", views)

	for _, c := range sessionConfigurations(t) {
		check(c.label, c.cfg)
	}
}

// labelledConfig is a configuration with where it came from.
type labelledConfig struct {
	label string
	cfg   *physical.Configuration
}

// sessionConfigurations returns every configuration the spine and
// update+view sessions evaluate and every configuration one
// transformation away from those, each group of one node and its steps
// in a row.
func sessionConfigurations(t *testing.T) []labelledConfig {
	t.Helper()
	var out []labelledConfig
	spine := runSpineSession(t, 1)
	_, updView, updViewTrace := runUpdViewSession(t, Options{Parallelism: 1})
	for _, s := range []struct {
		name  string
		tuner *Tuner
		res   *Result
		trace []obs.Event
	}{
		{"spine", tpchTuner(t, Options{NoViews: true}), spine.res, spine.trace},
		{"update+view", benchTuner(t, updViewSeed, 0.35, Options{}), updView, updViewTrace},
	} {
		out = append(out,
			labelledConfig{s.name + " initial", s.res.Initial.Config},
			labelledConfig{s.name + " best", s.res.Best.Config})
		_, nodes := nodeEnumerations(t, s.tuner, s.res.Optimal, s.trace)
		for i, n := range nodes {
			out = append(out, labelledConfig{fmt.Sprintf("%s node %d", s.name, i), n.eval.Config})
			for _, tr := range n.enum.Trans {
				out = append(out, labelledConfig{fmt.Sprintf("%s node %d after %s", s.name, i, tr.ID()), tr.Apply(n.eval.Config)})
			}
		}
	}
	return out
}

// TestEqualFollowsFingerprintOnSessions holds Equal and Digest to the
// fingerprint over the sessions' configurations: Equal holds exactly when
// two fingerprints are equal, and equal configurations have equal digests.
// It compares every configuration with the one before it (a node with its
// first step, a step with the next step of the same node), every two that
// share a fingerprint or a digest, and random pairs.
func TestEqualFollowsFingerprintOnSessions(t *testing.T) {
	configs := sessionConfigurations(t)
	fps := make([]string, len(configs))
	for i, c := range configs {
		fps[i] = c.cfg.Fingerprint()
	}
	var equal, apart int
	check := func(i, j int) {
		t.Helper()
		a, b := configs[i].cfg, configs[j].cfg
		same := fps[i] == fps[j]
		if a.Equal(b) != same || b.Equal(a) != same {
			t.Fatalf("%s and %s: Equal %v, fingerprints equal %v", configs[i].label, configs[j].label, a.Equal(b), same)
		}
		if same && a.Digest() != b.Digest() {
			t.Fatalf("%s and %s: equal configurations with digests %x and %x", configs[i].label, configs[j].label, a.Digest(), b.Digest())
		}
		if same {
			equal++
		} else {
			apart++
		}
	}
	byFP := map[string]int{}
	byDigest := map[uint64]int{}
	for i := range configs {
		if i > 0 {
			check(i-1, i)
		}
		if j, ok := byFP[fps[i]]; ok {
			check(j, i)
		}
		byFP[fps[i]] = i
		d := configs[i].cfg.Digest()
		if j, ok := byDigest[d]; ok {
			check(j, i)
		}
		byDigest[d] = i
	}
	rng := rand.New(rand.NewSource(1))
	for range 5000 {
		check(rng.Intn(len(configs)), rng.Intn(len(configs)))
	}
	t.Logf("%d configurations, %d distinct; %d pairs equal, %d apart", len(configs), len(byFP), equal, apart)
	if equal == 0 || apart == 0 {
		t.Errorf("the sessions gave no pair that is equal (%d) or apart (%d)", equal, apart)
	}
}
