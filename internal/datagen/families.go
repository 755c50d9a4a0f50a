package datagen

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
)

// family is one built-in schema: its name and its table specs by scale
// factor.
type family struct {
	name  string
	specs func(sf float64) []tableSpec
}

// families is the one table of database names: every -db flag, fleet
// tenant spec and experiment loop resolves a name through it.
var families = []family{
	{"tpch", tpchSpecs},
	{"ds1", ds1Specs},
	{"bench", benchSpecs},
}

// Names lists the database families ByName and DataByName accept.
func Names() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

func familyByName(name string) (family, error) {
	for _, f := range families {
		if strings.EqualFold(name, f.name) {
			return f, nil
		}
	}
	return family{}, fmt.Errorf("unknown database %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// ByName builds the named family's database (statistics only) at the
// given scale factor. Names are case-insensitive.
func ByName(name string, sf float64) (*catalog.Database, error) {
	f, err := familyByName(name)
	if err != nil {
		return nil, err
	}
	return buildDatabase(f.name, f.specs(sf)), nil
}

// DataByName is ByName with materialized rows, as the *Data constructors
// build them — the replay substrate.
func DataByName(name string, sf float64) (*catalog.Database, *exec.Store, error) {
	f, err := familyByName(name)
	if err != nil {
		return nil, nil, err
	}
	db, store := materialize(f.name, f.specs(sf))
	return db, store, nil
}
