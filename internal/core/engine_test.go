package core

import (
	"context"
	"errors"
	"testing"

	"pilfill/internal/density"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/route"
	"pilfill/internal/scanline"
)

var testRule = layout.FillRule{Feature: 300, Gap: 100, Buffer: 150}

// mustInstances builds the engine's instances, failing the test on error.
func mustInstances(tb testing.TB, eng *Engine, budget density.Budget) []*Instance {
	tb.Helper()
	instances, err := eng.Instances(budget)
	if err != nil {
		tb.Fatal(err)
	}
	return instances
}

// smallLayout builds a 32x32 um die with a handful of trunk-routed nets.
func smallLayout(t *testing.T) (*layout.Layout, *layout.Dissection) {
	t.Helper()
	die := geom.Rect{X1: 0, Y1: 0, X2: 32000, Y2: 32000}
	l := &layout.Layout{
		Name: "small",
		Die:  die,
		Layers: []layout.Layer{
			{Name: "m3", Dir: layout.Horizontal, Width: 200},
			{Name: "m4", Dir: layout.Vertical, Width: 200},
		},
	}
	type netSpec struct {
		src   geom.Point
		sinks []geom.Point
	}
	specs := []netSpec{
		{geom.Point{X: 1000, Y: 4000}, []geom.Point{{X: 30000, Y: 4000}, {X: 16000, Y: 9000}}},
		{geom.Point{X: 1000, Y: 12000}, []geom.Point{{X: 28000, Y: 12000}}},
		{geom.Point{X: 2000, Y: 20000}, []geom.Point{{X: 30000, Y: 20000}, {X: 10000, Y: 26000}, {X: 24000, Y: 16000}}},
		{geom.Point{X: 1000, Y: 28000}, []geom.Point{{X: 20000, Y: 28000}}},
	}
	for i, sp := range specs {
		src := layout.Pin{P: sp.src}
		var sinks []layout.Pin
		for _, p := range sp.sinks {
			sinks = append(sinks, layout.Pin{P: p})
		}
		segs, err := route.Trunk(src, sinks, 0, 1, 200)
		if err != nil {
			t.Fatal(err)
		}
		l.Nets = append(l.Nets, &layout.Net{
			Name: "n" + string(rune('a'+i)), Source: src, Sinks: sinks, Segments: segs,
		})
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := layout.NewDissection(die, 16000, 4)
	if err != nil {
		t.Fatal(err)
	}
	return l, d
}

func buildEngine(t *testing.T, weighted bool, def scanline.Def) (*Engine, density.Budget) {
	t.Helper()
	l, d := smallLayout(t)
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Def: def, Weighted: weighted, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	grid := density.NewGrid(l, d, eng.Occ, 0)
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: 0.15, MaxDensity: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if budget.Total() == 0 {
		t.Fatal("test layout produced an empty budget")
	}
	return eng, budget
}

func TestEngineEndToEndAllMethods(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	if len(instances) == 0 {
		t.Fatal("no instances")
	}

	results := map[Method]*Result{}
	for _, m := range []Method{Normal, Greedy, ILPI, ILPII, DP, MarginalGreedy} {
		res, err := eng.Run(m, instances)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Placed != res.Requested {
			t.Errorf("%v: placed %d != requested %d", m, res.Placed, res.Requested)
		}
		if len(res.Fill.Fills) != res.Placed {
			t.Errorf("%v: fill set has %d features, reported %d", m, len(res.Fill.Fills), res.Placed)
		}
		results[m] = res
	}

	// Identical density control: every method fills the same count per tile.
	ref := results[Normal].Fill.TileFillAreas(eng.Dis)
	for m, res := range results {
		got := res.Fill.TileFillAreas(eng.Dis)
		for i := range ref {
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Errorf("%v: tile (%d,%d) fill area %d != normal %d", m, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}

	// Quality ordering on the optimized (unweighted) objective:
	// DP == ILPII == MarginalGreedy <= Greedy <= ... and ILPII <= Normal.
	opt := results[DP].Unweighted
	if results[ILPII].Unweighted > opt*(1+1e-9)+1e-25 {
		t.Errorf("ILP-II %g worse than DP %g", results[ILPII].Unweighted, opt)
	}
	if results[MarginalGreedy].Unweighted > opt*(1+1e-9)+1e-25 {
		t.Errorf("MarginalGreedy %g worse than DP %g", results[MarginalGreedy].Unweighted, opt)
	}
	if results[Greedy].Unweighted < opt-1e-25 {
		t.Errorf("Greedy %g beats the proven optimum %g", results[Greedy].Unweighted, opt)
	}
	if results[Normal].Unweighted < opt-1e-25 {
		t.Errorf("Normal %g beats the proven optimum %g", results[Normal].Unweighted, opt)
	}
}

func TestEngineWeightedObjective(t *testing.T) {
	eng, budget := buildEngine(t, true, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	dp, err := eng.Run(DP, instances)
	if err != nil {
		t.Fatal(err)
	}
	ilp2, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	normal, err := eng.Run(Normal, instances)
	if err != nil {
		t.Fatal(err)
	}
	if ilp2.Weighted > dp.Weighted*(1+1e-9)+1e-25 {
		t.Errorf("weighted ILP-II %g worse than DP %g", ilp2.Weighted, dp.Weighted)
	}
	if normal.Weighted < dp.Weighted-1e-25 {
		t.Errorf("weighted Normal %g beats optimum %g", normal.Weighted, dp.Weighted)
	}
}

func TestEnginePlacementLandsOnFreeSites(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	res, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[layout.Fill]bool{}
	for _, f := range res.Fill.Fills {
		if eng.Occ.Blocked(f.Col, f.Row) {
			t.Fatalf("fill placed on blocked site (%d,%d)", f.Col, f.Row)
		}
		if seen[f] {
			t.Fatalf("duplicate fill at (%d,%d)", f.Col, f.Row)
		}
		seen[f] = true
	}
	// No fill may violate the buffer distance to any drawn wire.
	for _, f := range res.Fill.Fills {
		keepout := eng.Grid.SiteRect(f.Col, f.Row).Expand(testRule.Buffer)
		for _, n := range eng.L.Nets {
			for _, s := range n.Segments {
				if s.Layer == 0 && keepout.Overlaps(s.Rect()) {
					t.Fatalf("fill (%d,%d) violates buffer to a wire", f.Col, f.Row)
				}
			}
		}
	}
}

func TestEngineDefIComparison(t *testing.T) {
	// Def I has (weakly) less usable capacity, so it may place fewer
	// features for the same budget; results must still be valid.
	engI, budget := buildEngine(t, false, scanline.DefI)
	resI, err := engI.Run(Greedy, mustInstances(t, engI, budget))
	if err != nil {
		t.Fatal(err)
	}
	engIII, _ := buildEngine(t, false, scanline.DefIII)
	resIII, err := engIII.Run(Greedy, mustInstances(t, engIII, budget))
	if err != nil {
		t.Fatal(err)
	}
	if resI.Placed > resIII.Placed {
		t.Errorf("DefI placed %d > DefIII %d", resI.Placed, resIII.Placed)
	}
}

func TestEngineGreedyCappedRespectsNetCap(t *testing.T) {
	l, d := smallLayout(t)
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid := density.NewGrid(l, d, eng.Occ, 0)
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: 0.15, MaxDensity: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// First find the uncapped per-net worst case.
	res, err := eng.Run(Greedy, mustInstances(t, eng, budget))
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, v := range res.PerNet {
		if v > worst {
			worst = v
		}
	}
	if worst == 0 {
		t.Skip("budget landed only in free space; no net delay to cap")
	}
	capS := worst / 2
	eng.Cfg.NetCap = capS
	capped, err := eng.Run(GreedyCapped, mustInstances(t, eng, budget))
	if err != nil {
		t.Fatal(err)
	}
	// Per-tile caps: a net crossing T tiles may accrue T*cap in total, but
	// each tile honored the cap; verify via the placement totals per tile by
	// re-deriving from PerNet only when a single tile is involved. Here we
	// check the weaker global invariant: capped never exceeds uncapped.
	for n := range capped.PerNet {
		if capped.PerNet[n] > res.PerNet[n]+1e-25 {
			t.Errorf("net %d: capped %g > uncapped %g", n, capped.PerNet[n], res.PerNet[n])
		}
	}
	if capped.Placed > capped.Requested {
		t.Error("capped placed more than requested")
	}
}

func TestActivityAwareCosting(t *testing.T) {
	// With all activities zero the objective matches the quiet model; with
	// positive activity the measured impact can only grow, and a column next
	// to a hot aggressor becomes costlier than the identical quiet case.
	eng, budget := buildEngine(t, false, scanline.DefIII)
	base, err := eng.Run(ILPII, mustInstances(t, eng, budget))
	if err != nil {
		t.Fatal(err)
	}

	quiet := make([]float64, len(eng.L.Nets))
	eng.Cfg.Activity = quiet
	same, err := eng.Run(ILPII, mustInstances(t, eng, budget))
	if err != nil {
		t.Fatal(err)
	}
	if same.Unweighted != base.Unweighted {
		t.Errorf("zero activity changed the objective: %g != %g", same.Unweighted, base.Unweighted)
	}

	hot := make([]float64, len(eng.L.Nets))
	for i := range hot {
		hot[i] = 1
	}
	eng.Cfg.Activity = hot
	doubled, err := eng.Run(ILPII, mustInstances(t, eng, budget))
	if err != nil {
		t.Fatal(err)
	}
	// Uniform activity 1 doubles the cost of pair-bounded columns but not of
	// single-line columns (their aggressor is a boundary), so the new
	// optimum is bracketed: no better than the quiet optimum, no worse than
	// twice it (the old argmin costs at most 2x under the new model).
	if doubled.Unweighted < base.Unweighted*(1-1e-9) {
		t.Errorf("activity lowered the impact: %g < %g", doubled.Unweighted, base.Unweighted)
	}
	if doubled.Unweighted > 2*base.Unweighted*(1+1e-9) {
		t.Errorf("activity more than doubled the optimum: %g > %g", doubled.Unweighted, 2*base.Unweighted)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	eng.memo = nil // every run solves; none replays another
	instances := mustInstances(t, eng, budget)
	grid := density.NewGrid(eng.L, eng.Dis, eng.Occ, 0)
	// Tight enough that some tiles branch and some fall back to the greedy.
	netBudgets := eng.NetBudgets(0.01, 1e-21)
	runs := map[string]func() (*Result, error){
		"RunBudgeted": func() (*Result, error) { return eng.RunBudgetedContext(context.Background(), instances, netBudgets) },
		"RunMVDC": func() (*Result, error) {
			r, err := eng.RunMVDCContext(context.Background(), grid, 1e-15, 0.2, 0.5)
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		},
	}
	for _, m := range []Method{Normal, Greedy, ILPII} {
		runs[m.String()] = func() (*Result, error) { return eng.Run(m, instances) }
	}
	for name, run := range runs {
		eng.Cfg.Workers = 0
		serial, err := run()
		if err != nil {
			t.Fatal(err)
		}
		eng.Cfg.Workers = 4
		parallel, err := run()
		if err != nil {
			t.Fatal(err)
		}
		eng.Cfg.Workers = 0
		requireResultsIdentical(t, name+"/parallel", parallel, serial)
		if name == "RunBudgeted" && serial.Placed == serial.Requested {
			t.Error("RunBudgeted: no tile fell back; the budgets are too loose")
		}
	}
}

func TestGroundedFillHeavierButStillOptimal(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	floating, err := eng.Run(ILPII, mustInstances(t, eng, budget))
	if err != nil {
		t.Fatal(err)
	}
	eng.Cfg.Grounded = true
	instances := mustInstances(t, eng, budget)
	grounded, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	if grounded.Unweighted <= floating.Unweighted {
		t.Errorf("grounded %g should exceed floating %g", grounded.Unweighted, floating.Unweighted)
	}
	// DP remains the exact reference in grounded mode too.
	dp, err := eng.Run(DP, instances)
	if err != nil {
		t.Fatal(err)
	}
	if grounded.Unweighted > dp.Unweighted*(1+1e-9)+1e-25 {
		t.Errorf("grounded ILP-II %g worse than DP %g", grounded.Unweighted, dp.Unweighted)
	}
	// Marginal greedy is only a heuristic here (step cost at m=1).
	mg, err := eng.Run(MarginalGreedy, instances)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Unweighted < dp.Unweighted*(1-1e-9)-1e-25 {
		t.Errorf("marginal greedy %g beats the DP optimum %g", mg.Unweighted, dp.Unweighted)
	}
}

// TestGroundedILPIRejected: ILP-I optimizes the floating-fill Eq 6
// linearization, so a grounded engine refuses it instead of placing the
// floating-fill answer; the methods with a grounded model still run.
func TestGroundedILPIRejected(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	eng.Cfg.Grounded = true
	instances := mustInstances(t, eng, budget)
	if res, err := eng.Run(ILPI, instances); !errors.Is(err, ErrGroundedILPI) || res != nil {
		t.Fatalf("grounded ILP-I: result %v, error %v; want ErrGroundedILPI", res, err)
	}
	if _, err := eng.Run(ILPII, instances); err != nil {
		t.Fatalf("grounded ILP-II: %v", err)
	}
	eng.Cfg.Grounded = false
	if _, err := eng.Run(ILPI, mustInstances(t, eng, budget)); err != nil {
		t.Fatalf("floating ILP-I: %v", err)
	}
}
