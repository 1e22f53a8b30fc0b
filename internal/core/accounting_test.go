package core

import (
	"math"
	"strings"
	"testing"

	"pilfill/internal/cap"
	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/scanline"
)

// perNetSum asserts the headline accounting invariant: the per-net
// attribution must sum to the measured unweighted total.
func perNetSum(t *testing.T, res *Result, label string) {
	t.Helper()
	sum := 0.0
	for _, v := range res.PerNet {
		sum += v
	}
	tol := 1e-12 * math.Max(math.Abs(res.Unweighted), math.Abs(sum))
	if math.Abs(sum-res.Unweighted) > tol {
		t.Errorf("%s: sum(PerNet) = %g, Unweighted = %g (diff %g)",
			label, sum, res.Unweighted, sum-res.Unweighted)
	}
}

func TestPerNetSumMatchesUnweighted(t *testing.T) {
	methods := []Method{Normal, Greedy, ILPI, ILPII, DP, MarginalGreedy, GreedyCapped}
	for _, tc := range []struct {
		name     string
		activity func(nets int) []float64
	}{
		{"quiet", func(int) []float64 { return nil }},
		{"hot", func(nets int) []float64 {
			a := make([]float64, nets)
			for i := range a {
				a[i] = 0.15 + 0.7*float64(i%5)/4 // non-trivial, per-net distinct
			}
			return a
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, budget := buildEngine(t, false, scanline.DefIII)
			eng.Cfg.Activity = tc.activity(len(eng.L.Nets))
			eng.Cfg.NetCap = 1e-15 // exercises the GreedyCapped cap path
			instances := mustInstances(t, eng, budget)
			for _, m := range methods {
				res, err := eng.Run(m, instances)
				if err != nil {
					t.Fatalf("%v: %v", m, err)
				}
				perNetSum(t, res, m.String()+"/"+tc.name)
			}
		})
	}
}

func TestPerNetSumMatchesUnweightedWeightedObjective(t *testing.T) {
	// PerNet is defined as the unweighted attribution regardless of the
	// optimization objective; the invariant must hold under Weighted too.
	eng, budget := buildEngine(t, true, scanline.DefIII)
	act := make([]float64, len(eng.L.Nets))
	for i := range act {
		act[i] = float64(i+1) / float64(len(act)+1)
	}
	eng.Cfg.Activity = act
	instances := mustInstances(t, eng, budget)
	for _, m := range []Method{Normal, Greedy, ILPII, DP} {
		res, err := eng.Run(m, instances)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		perNetSum(t, res, "weighted/"+m.String())
	}
}

func TestCachedEngineMatchesUncached(t *testing.T) {
	l, d := smallLayout(t)
	newEng := func(cfg Config) *Engine {
		t.Helper()
		eng, err := NewEngine(l, d, testRule, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	uncached := newEng(Config{Layer: 0, Seed: 42, NoTableCache: true})
	cached := newEng(Config{Layer: 0, Seed: 42, Cache: cap.NewTableCache()})
	parallel := newEng(Config{Layer: 0, Seed: 42, Cache: cap.NewTableCache(), Workers: 4})
	grid := density.NewGrid(l, d, uncached.Occ, 0)
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: 0.15, MaxDensity: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, grounded := range []bool{false, true} {
		uncached.Cfg.Grounded = grounded
		cached.Cfg.Grounded = grounded
		parallel.Cfg.Grounded = grounded
		insU := mustInstances(t, uncached, budget)
		insC := mustInstances(t, cached, budget)
		insP := mustInstances(t, parallel, budget)
		if len(insU) != len(insC) || len(insU) != len(insP) {
			t.Fatalf("grounded=%v: instance counts differ: %d/%d/%d", grounded, len(insU), len(insC), len(insP))
		}
		for _, m := range []Method{Normal, Greedy, ILPII, DP, MarginalGreedy} {
			ru, err := uncached.Run(m, insU)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := cached.Run(m, insC)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := parallel.Run(m, insP)
			if err != nil {
				t.Fatal(err)
			}
			requireResultsIdentical(t, m.String()+"/cached", rc, ru)
			requireResultsIdentical(t, m.String()+"/parallel-cached", rp, ru)
		}
	}
	if s := cached.CacheStats(); s.Misses == 0 || s.Hits == 0 {
		t.Errorf("cache never exercised: %+v", s)
	}
	if s := uncached.CacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("uncached engine reports cache traffic: %+v", s)
	}
}

func TestCacheReusedAcrossTilesAndSessions(t *testing.T) {
	// Distinct spacings are few, so a fresh cache must see far more lookups
	// than entries, and a second engine sharing it must start hot.
	l, d := smallLayout(t)
	c := cap.NewTableCache()
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 1, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	grid := density.NewGrid(l, d, eng.Occ, 0)
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: 0.15, MaxDensity: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_ = mustInstances(t, eng, budget)
	s1 := c.Stats()
	if s1.Misses == 0 {
		t.Fatal("no tables built")
	}
	if s1.Entries != int(s1.Misses) {
		t.Errorf("entries %d != misses %d", s1.Entries, s1.Misses)
	}
	eng2, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 1, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	_ = mustInstances(t, eng2, budget)
	s2 := c.Stats()
	if s2.Misses != s1.Misses {
		t.Errorf("second session rebuilt tables: misses %d -> %d", s1.Misses, s2.Misses)
	}
	if s2.Hits <= s1.Hits {
		t.Errorf("second session produced no cache hits: %+v", s2)
	}
}

func TestInstancesErrorOnTruncatedTable(t *testing.T) {
	// Regression: a capacitance table shorter than the extracted column
	// capacity used to be absorbed by clamping MaxM down, silently
	// under-filling the tile and skewing every density and delay figure
	// downstream. Corrupt one cache entry and require the builder to refuse.
	l, d := smallLayout(t)
	c := cap.NewTableCache()
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 1, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	grid := density.NewGrid(l, d, eng.Occ, 0)
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: 0.15, MaxDensity: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_ = mustInstances(t, eng, budget) // sanity: the healthy cache builds fine

	// Find an attributed column and poison its table with one too few rows.
	var spacing int64
	capacity := 0
	for i := range eng.Tiles {
		for j := range eng.Tiles[i] {
			for k := range eng.Tiles[i][j].Cols {
				col := &eng.Tiles[i][j].Cols[k]
				if (col.HasLow() || col.HasHigh()) && col.Capacity > 1 {
					spacing, capacity = col.Spacing(), int(col.Capacity)
				}
			}
		}
	}
	if capacity == 0 {
		t.Fatal("no attributed column with capacity > 1 in test layout")
	}
	truncated := cap.Table{W: testRule.Feature, D: spacing, Deltas: make([]float64, capacity)}
	c.Preload(cap.Default130, testRule.Feature, spacing, capacity, false, truncated)

	if _, err := eng.Instances(budget); err == nil {
		t.Fatal("Instances succeeded with a truncated capacitance table, want error")
	} else if !strings.Contains(err.Error(), "capacitance table covers") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestAccountingErrorsOnCorruptAssignment(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	var in *Instance
	for _, cand := range instances {
		for k := range cand.Columns {
			if cand.Columns[k].DeltaC != nil {
				in = cand
				break
			}
		}
		if in != nil {
			break
		}
	}
	if in == nil {
		t.Skip("no attributed columns in the test layout")
	}
	// An assignment past a column's cost curve must be rejected, not clamped.
	bad := make(Assignment, len(in.Columns))
	for k := range in.Columns {
		if in.Columns[k].DeltaC != nil {
			bad[k] = len(in.Columns[k].DeltaC) // one past MaxM
			break
		}
	}
	perNet := make([]float64, len(eng.L.Nets))
	if err := eng.accumulatePerNet(perNet, in, bad); err == nil {
		t.Error("accumulatePerNet accepted an out-of-range assignment")
	}
	// An assignment exceeding a column's free sites must be rejected too.
	overfull := make(Assignment, len(in.Columns))
	overfull[0] = int(in.Columns[0].Col.Capacity) + 1
	fs := &layout.FillSet{Grid: eng.Grid, Layer: eng.Cfg.Layer}
	var rows []int
	if err := eng.place(fs, in, overfull, &rows); err == nil {
		t.Error("place accepted an assignment exceeding free sites")
	}
}

func TestPrepStatsPopulated(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	if eng.Prep.Total <= 0 {
		t.Error("NewEngine recorded no preprocessing time")
	}
	before := eng.Prep.Build
	_ = mustInstances(t, eng, budget)
	if eng.Prep.Build <= before {
		t.Error("Instances did not accumulate build time")
	}
	res, err := eng.Run(Greedy, mustInstances(t, eng, budget))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU != res.Phases.Solve {
		t.Errorf("CPU %v != Phases.Solve %v", res.CPU, res.Phases.Solve)
	}
	if res.Wall <= 0 {
		t.Error("Wall not recorded")
	}
	if res.Phases.Preprocess != eng.Prep.Total {
		t.Errorf("Phases.Preprocess %v != engine prep %v", res.Phases.Preprocess, eng.Prep.Total)
	}
}
