package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/physical"
	"repro/internal/workloads"
)

// viewGridSession is one cold session of the view grid: a generated
// 20-statement workload, views on, at a third budget.
type viewGridSession struct {
	name string
	db   *catalog.Database
	w    *workloads.Workload
}

// viewGrid is tpch, ds1 and bench at SF 0.01, generator seeds 1–8, with
// 0 or 35 % updates: 48 sessions whose optimal configurations hold a few
// hundred distinct views, merged and unmerged.
func viewGrid(t testing.TB) []viewGridSession {
	t.Helper()
	var out []viewGridSession
	for _, db := range []*catalog.Database{datagen.TPCH(0.01), datagen.DS1(0.01), datagen.Bench(0.01)} {
		for seed := int64(1); seed <= 8; seed++ {
			for _, upd := range []float64{0, 0.35} {
				g := workloads.DefaultGenOptions("x", seed, 20)
				g.UpdateFraction = upd
				w, err := workloads.Generate(db, g)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, viewGridSession{fmt.Sprintf("%s/seed=%d/upd=%g", db.Name, seed, upd), db, w})
			}
		}
	}
	return out
}

// TestEveryViewHasItsCBVAndItsDDL is §3.3.2's premise over the view grid:
// every view a session prices, merged ones included, has a CBV, and every
// view and configuration the tuner writes as DDL reads back as itself.
// Its subtest holds the optimal views of the grid and of TPC-H 22 to the
// text the parent renderer wrote (checkReferenceText).
func TestEveryViewHasItsCBVAndItsDDL(t *testing.T) {
	var cbvs, configs int
	var views []*physical.View
	for _, s := range viewGrid(t) {
		budget := thirdBudget(t, s.db, s.w, false)
		tn, err := NewTuner(s.db, s.w, Options{SpaceBudget: budget, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Tune()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for sig, e := range tn.cbvCache {
			cbvs++
			if e.err != nil {
				t.Errorf("%s: CBV of %s: %v", s.name, sig, e.err)
			}
		}

		opt := res.Optimal.Config
		for _, v := range opt.Views() {
			views = append(views, v)
			back, err := tn.ParseConfigurationScript(physical.ViewDDL(v))
			if err != nil {
				t.Errorf("%s: %s does not parse back: %v", s.name, physical.ViewDDL(v), err)
				continue
			}
			if back.ViewBySignature(v.Signature()) == nil {
				t.Errorf("%s: %s parses back as another view", s.name, physical.ViewDDL(v))
			}
		}
		configs++
		back, err := tn.ParseConfigurationScript(withoutComments(physical.ConfigurationDDL(opt)))
		if err != nil {
			t.Errorf("%s: the optimal configuration's DDL does not parse back: %v", s.name, err)
		} else if back.Fingerprint() != opt.Fingerprint() {
			t.Errorf("%s: the optimal configuration's DDL parses back as another configuration", s.name)
		}
	}
	t.Logf("%d CBVs, %d optimal views, %d optimal configurations", cbvs, len(views), configs)

	t.Run("reference text", func(t *testing.T) {
		w, err := workloads.TPCH22()
		if err != nil {
			t.Fatal(err)
		}
		tn, err := NewTuner(datagen.TPCH(0.001), w, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := tn.OptimalConfiguration()
		if err != nil {
			t.Fatal(err)
		}
		checkReferenceText(t, append(opt.Views(), views...))
	})
}

// withoutComments drops the script's comment lines: ConfigurationDDL
// writes the constraint indexes every base configuration already holds as
// comments.
func withoutComments(script string) string {
	var keep []string
	for _, line := range strings.Split(script, "\n") {
		if !strings.HasPrefix(line, "--") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}
