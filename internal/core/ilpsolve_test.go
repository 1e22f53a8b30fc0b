package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pilfill/internal/density"
	"pilfill/internal/ilp"
	"pilfill/internal/layout"
	"pilfill/internal/testcases"
)

// defaultOpts is the bnbOpts hook of a one-off solve with default options.
func defaultOpts(sc *SolveScratch) func() *ilp.Options {
	return func() *ilp.Options { return sc.withOpts(nil) }
}

// forcedBranchILPII is the uncertified ILP-II path, kept as the oracle of
// the certificate: the same (cap-repaired) marginal-greedy incumbent seeds
// the ILP-II program, and the branch-and-bound searcher runs on every tile.
func forcedBranchILPII(in *Instance, opts ilp.Options, nc *NetCap) (Assignment, error) {
	sc := NewSolveScratch()
	a := make(Assignment, len(in.Columns))
	if len(in.Columns) == 0 || in.F == 0 {
		return a, nil
	}
	_, dropped := sc.ilpiiIncumbent(in, nc, a)
	inc := a
	if dropped {
		inc = nil
	}
	g := sc.buildILPII(in, nc, inc)
	opts.Incumbent = g.Incumbent
	sol, err := sc.searcher.Solve(g.P, &opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return nil, fmt.Errorf("solver returned %v", sol.Status)
	}
	g.decodeInto(a, sol.X)
	return a, nil
}

// certifyTally counts how the certified path settled the tiles it was given.
type certifyTally struct{ tiles, certified, branched, failed int }

// requireCertifiedMatchesForced solves in on the warm scratch sc through
// solveILPII and through the forced-B&B oracle, and fails unless both agree
// on the outcome and, when they succeed, on every column of the assignment.
func requireCertifiedMatchesForced(t *testing.T, label string, sc *SolveScratch, in *Instance, opts ilp.Options, nc *NetCap, tally *certifyTally) {
	t.Helper()
	a := make(Assignment, len(in.Columns))
	sol, _, err := sc.solveILPII(context.Background(), in, nc, a, func() *ilp.Options { return sc.withOpts(&opts) })
	ref, refErr := forcedBranchILPII(in, opts, nc)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s tile (%d,%d): certified err %v, forced-B&B err %v", label, in.I, in.J, err, refErr)
	}
	tally.tiles++
	switch {
	case err != nil:
		tally.failed++
		return
	case sol == nil && in.F > 0 && len(in.Columns) > 0:
		tally.certified++
	case sol != nil:
		tally.branched++
	}
	if !slices.Equal(a, ref) {
		t.Fatalf("%s tile (%d,%d): certified %v != forced-B&B %v", label, in.I, in.J, a, ref)
	}
}

// TestCertifiedILPIIMatchesForcedBranch is the gate of the certify-first
// ILP-II path: on real T1/T2 tiles at all six W/r rows (weighted and
// unweighted, uncapped and under a loose and a tight per-net cap) and on
// random convex and non-convex synthetic tiles with and without caps, the
// assignment is bit-equal to running branch-and-bound on every tile. Both
// the certificate and its B&B fallback must be exercised.
func TestCertifiedILPIIMatchesForcedBranch(t *testing.T) {
	// The fallback's node limit only bounds the proofs of infeasibility the
	// tight caps provoke: the oracle and the fallback run the identical
	// search, and a certified tile's oracle stops at its root node.
	opts := ilp.Options{MaxNodes: 8}
	// Every stride-th tile of a row: the grid, not the tile count, is what
	// this test covers, and the oracle branches on every tile.
	stride, trials := 6, 3000
	if testing.Short() || raceEnabled {
		stride, trials = 48, 500
	}
	sc := NewSolveScratch()
	var tiles certifyTally
	cappedFallbacks := 0
	for _, c := range []struct {
		name string
		spec testcases.Spec
	}{{"T1", testcases.T1()}, {"T2", testcases.T2()}} {
		l, err := testcases.Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, wr := range [][2]int{{32, 2}, {32, 4}, {32, 8}, {20, 2}, {20, 4}, {20, 8}} {
			dis, err := layout.NewDissection(l.Die, testcases.WindowNM(wr[0]), wr[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, weighted := range []bool{false, true} {
				instances := tableInstances(t, l, dis, c.spec.Rule, weighted)
				for _, capS := range []float64{0, 5e-15, 5e-16} {
					label := fmt.Sprintf("%s/%d/%d weighted=%v cap=%g", c.name, wr[0], wr[1], weighted, capS)
					nc := &NetCap{MaxAddedDelay: capS}
					before := tiles
					for i := 0; i < len(instances); i += stride {
						requireCertifiedMatchesForced(t, label, sc, instances[i], opts, nc, &tiles)
					}
					if capS > 0 {
						cappedFallbacks += tiles.branched - before.branched + tiles.failed - before.failed
					}
				}
			}
		}
	}
	t.Logf("real tiles: %+v", tiles)
	if tiles.certified == 0 || cappedFallbacks == 0 {
		t.Fatalf("coverage too thin: %+v, %d capped tiles failed the certificate", tiles, cappedFallbacks)
	}

	rng := rand.New(rand.NewSource(17))
	var synth certifyTally
	cappedFallbacks = 0
	for trial := 0; trial < trials; trial++ {
		in := dualSynthInstance(rng, 1+rng.Intn(8), trial%2 == 0)
		in.I = trial
		var nc *NetCap
		if trial%3 == 0 && in.F > 0 {
			nc = dualRandomCaps(rng, in)
		}
		before := synth
		requireCertifiedMatchesForced(t, "synthetic", sc, in, ilp.Options{}, nc, &synth)
		if nc != nil {
			cappedFallbacks += synth.branched - before.branched + synth.failed - before.failed
		}
	}
	t.Logf("synthetic tiles: %+v", synth)
	if synth.certified == 0 || synth.branched == 0 || cappedFallbacks == 0 {
		t.Fatalf("coverage too thin: %+v, %d capped tiles failed the certificate", synth, cappedFallbacks)
	}
}

// tableInstances prepares one EXPERIMENTS table grid point the way the
// table harness does: an engine over the dissection and the harness
// density targets (minimum 0.15, maximum 0.7, seed 1).
func tableInstances(t *testing.T, l *layout.Layout, dis *layout.Dissection, rule layout.FillRule, weighted bool) []*Instance {
	t.Helper()
	eng, err := NewEngine(l, dis, rule, Config{Weighted: weighted, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid := density.NewGrid(l, dis, eng.Occ, 0)
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: 0.15, MaxDensity: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return mustInstances(t, eng, budget)
}

// TestHullCertificateIsTheRootPrune pins the certificate's threshold to the
// searcher's root prune: a warm start that costs more than the hull bound by
// a normalized gap below 1e-9 is certified, and the searcher seeded with it
// keeps it; above 1e-9 the certificate fails and the searcher finds the
// cheaper column. Two one-feature columns cost S and S(1+δ), on the unit
// scale and on the femtosecond scale of real delay costs.
func TestHullCertificateIsTheRootPrune(t *testing.T) {
	for _, s := range []float64{1, 1e-15} {
		for _, delta := range []float64{3e-11, 3e-10, 3e-9, 3e-8} {
			in := &Instance{F: 1, Columns: []ColumnVar{
				{MaxM: 1, CostExact: []float64{0, s}, NetLow: -1, NetHigh: -1},
				{MaxM: 1, CostExact: []float64{0, s * (1 + delta)}, NetLow: -1, NetHigh: -1},
			}}
			sc := NewSolveScratch()
			hull, err := sc.hullSweep(context.Background(), in)
			if err != nil || hull == nil {
				t.Fatalf("hull sweep: %v, %v", hull, err)
			}
			inc := Assignment{0, 1} // the dearer column
			certified := sc.hullCertifies(in, inc, hull)
			g := sc.buildILPII(in, nil, inc)
			opts := ilp.Options{Incumbent: g.Incumbent}
			sol, err := sc.searcher.Solve(g.P, &opts)
			if err != nil || sol.Status != ilp.Optimal {
				t.Fatalf("S=%g δ=%g: B&B %v, %v", s, delta, sol, err)
			}
			a := make(Assignment, 2)
			g.decodeInto(a, sol.X)
			kept := slices.Equal(a, inc)
			if want := delta < 1e-9; certified != want || kept != want {
				t.Errorf("S=%g δ=%g: certified %v, B&B kept the warm start %v; want both %v",
					s, delta, certified, kept, want)
			}
		}
	}
}
