// Command wlgen generates random SPJG (and optionally update) workloads
// over the built-in databases and prints them as a SQL script that
// relaxtune can consume.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/tuner"
)

func main() {
	var (
		dbName  = flag.String("db", "tpch", "database: tpch, ds1, or bench")
		sf      = flag.Float64("sf", 0.001, "database scale factor (affects predicate constants)")
		n       = flag.Int("n", 10, "number of statements")
		joins   = flag.Int("joins", 4, "maximum joined tables per query")
		updates = flag.Float64("updates", 0, "fraction of update statements")
		seed    = flag.Int64("seed", 42, "generation seed")
	)
	flag.Parse()

	db, err := datagen.ByName(*dbName, *sf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlgen:", err)
		os.Exit(1)
	}

	w, err := tuner.GenerateWorkload(db, tuner.GenOptions{
		Seed: *seed, NumQueries: *n, MaxJoins: *joins,
		UpdateFraction: *updates, GroupByProb: 0.45, OrderByProb: 0.35,
		Name: "wlgen",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlgen:", err)
		os.Exit(1)
	}
	fmt.Printf("-- %s over %s (seed %d)\n", w.Name, db.Name, *seed)
	for _, q := range w.Queries {
		fmt.Printf("%s;\n", q.SQL)
	}
}
