package experiments

import (
	"os"
	"testing"
)

func tinyConfig() Config {
	c := DefaultConfig()
	c.Workloads = 1
	c.QueriesPerWorkload = 4
	c.MaxIterations = 20
	return c
}

func TestTable1RequestsAreSmall(t *testing.T) {
	rows, err := Table1(tinyConfig())
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	if len(rows) != 22 {
		t.Fatalf("expected 22 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.IndexRequests == 0 {
			t.Errorf("%s issued no index requests", r.QueryID)
		}
		// The paper's point: request counts per query stay small even for
		// complex queries (no combinatorial explosion of candidates).
		if r.IndexRequests > 200 {
			t.Errorf("%s issued %d index requests (expected small)", r.QueryID, r.IndexRequests)
		}
	}
	if testing.Verbose() {
		RenderTable1(os.Stdout, rows)
	}
}

func TestTable2Inventory(t *testing.T) {
	rows, err := Table2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 database families, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Tables == 0 || r.Rows == 0 {
			t.Errorf("family %s has empty inventory", r.Database)
		}
	}
}

func TestFigure4FrontierShape(t *testing.T) {
	res, err := Figure4(tinyConfig())
	if err != nil {
		t.Fatalf("figure4: %v", err)
	}
	if res.OptimalCost > res.InitialCost {
		t.Errorf("optimal cost %.1f above initial %.1f", res.OptimalCost, res.InitialCost)
	}
	if res.OptimalSize <= res.InitialSize {
		t.Errorf("optimal size %d not above initial %d", res.OptimalSize, res.InitialSize)
	}
	if res.BestSize > res.Budget {
		t.Errorf("recommendation exceeds budget: %d > %d", res.BestSize, res.Budget)
	}
	if res.BestCost < res.OptimalCost {
		t.Errorf("constrained best %.1f beats unconstrained optimal %.1f", res.BestCost, res.OptimalCost)
	}
	if len(res.Frontier) < 5 {
		t.Errorf("frontier has only %d points", len(res.Frontier))
	}
	if testing.Verbose() {
		RenderFigure4(os.Stdout, res)
	}
}

func TestFigure6CensusGrows(t *testing.T) {
	census, err := Figure6(tinyConfig())
	if err != nil {
		t.Fatalf("figure6: %v", err)
	}
	if len(census) == 0 {
		t.Fatal("empty census")
	}
	max := 0
	for _, c := range census {
		if c > max {
			max = c
		}
	}
	// The paper reports hundreds of candidate transformations per
	// iteration; even at tiny scale there should be scores of them.
	if max < 50 {
		t.Errorf("peak transformation count %d is implausibly small", max)
	}
}
