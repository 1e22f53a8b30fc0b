package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pilfill/internal/density"
	"pilfill/internal/geom"
	"pilfill/internal/ilp"
	"pilfill/internal/layout"
	"pilfill/internal/scanline"
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
	var st solveStats
	st.incRepaired, st.incDropped = sc.ilpiiIncumbent(in, nc, a, nil)
	if _, err := sc.branchILPII(in, nc, a, &st, &opts); err != nil {
		return nil, err
	}
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
// ILP-II path: on real T1/T2/T3 tiles at all six W/r rows (weighted and
// unweighted, uncapped and under a loose and a tight per-net cap), on
// jittered-chip tiles (uncapped, under the chip jobs' cap and two tighter
// ones) and on random convex and non-convex synthetic tiles with and
// without caps, the assignment is bit-equal to running branch-and-bound on
// every tile. Both the certificate and its B&B fallback must be exercised.
func TestCertifiedILPIIMatchesForcedBranch(t *testing.T) {
	// The fallback's node limit only bounds the proofs of infeasibility the
	// tight caps provoke: the oracle and the fallback run the identical
	// search, and a certified tile's oracle stops at its root node.
	opts := ilp.Options{MaxNodes: 8}
	// Every stride-th tile of a row: the grid, not the tile count, is what
	// this test covers, and the oracle branches on every tile.
	// T3 has about three times T1 and T2's tiles together, so it takes a
	// coarser stride; building its instances still costs more than solving
	// them, so the short and race runs cover one T3 row.
	rows := [][2]int{{32, 2}, {32, 4}, {32, 8}, {20, 2}, {20, 4}, {20, 8}}
	stride, trials, t3Rows := 6, 3000, rows
	if testing.Short() || raceEnabled {
		stride, trials, t3Rows = 48, 500, rows[1:2]
	}
	sc := NewSolveScratch()
	var tiles certifyTally
	cappedFallbacks := 0
	for _, c := range []struct {
		name   string
		spec   testcases.Spec
		rows   [][2]int
		stride int
	}{
		{"T1", testcases.T1(), rows, stride},
		{"T2", testcases.T2(), rows, stride},
		{"T3", testcases.T3(), t3Rows, 5 * stride},
	} {
		l, err := testcases.Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, wr := range c.rows {
			dis, err := layout.NewDissection(l.Die, testcases.WindowNM(wr[0]), wr[1])
			if err != nil {
				t.Fatal(err)
			}
			eng, budget := tableEngine(t, l, dis, c.spec.Rule)
			for _, weighted := range []bool{false, true} {
				eng.Cfg.Weighted = weighted
				instances := mustInstances(t, eng, budget)
				for _, capS := range []float64{0, 5e-15, 5e-16} {
					label := fmt.Sprintf("%s/%d/%d weighted=%v cap=%g", c.name, wr[0], wr[1], weighted, capS)
					nc := &NetCap{MaxAddedDelay: capS}
					before := tiles
					for i := 0; i < len(instances); i += c.stride {
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

	// Jittered chips under the chip jobs' dissection (window 12800 nm,
	// r = 4) and elliptic FFT budget: nearly every tile is its own solve
	// pattern, as on the memo-miss path of a chip run. Uncapped and under
	// the chip jobs' 5e-16 s net cap every tile certifies; the two tighter
	// caps make some repaired incumbents fail the certificate.
	chips, chipStride := 3, 2
	if testing.Short() || raceEnabled {
		chips, chipStride = 1, 8
	}
	var chipTiles certifyTally
	cappedFallbacks = 0
	for seed := int64(1); seed <= int64(chips); seed++ {
		spec := testcases.Chip(4, 16)
		l := jitteredChip(t, spec, seed)
		dis, err := layout.NewDissection(l.Die, 12800, 4)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(l, dis, spec.Rule, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		grid := density.NewGrid(l, dis, eng.Occ, 0)
		budget, _, err := density.FFTBudget(grid, density.NewKernel(density.EllipticKernel, 4),
			density.FFTBudgetOptions{TargetMin: 0.3, MaxDensity: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		instances := mustInstances(t, eng, budget)
		for _, capS := range []float64{0, 5e-16, 5e-17, 1e-17} {
			label := fmt.Sprintf("jittered chip %d cap=%g", seed, capS)
			nc := &NetCap{MaxAddedDelay: capS}
			before := chipTiles
			for i := int(seed) % chipStride; i < len(instances); i += chipStride {
				requireCertifiedMatchesForced(t, label, sc, instances[i], opts, nc, &chipTiles)
			}
			if capS > 0 {
				cappedFallbacks += chipTiles.branched - before.branched + chipTiles.failed - before.failed
			}
		}
	}
	t.Logf("jittered chip tiles: %+v", chipTiles)
	if chipTiles.certified == 0 || cappedFallbacks == 0 {
		t.Fatalf("coverage too thin: %+v, %d capped tiles failed the certificate", chipTiles, cappedFallbacks)
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

// TestDualCertifiesCapModelCurves holds ILP-II's hull certificate to the
// real capacitance model: floating-fill cost curves are convex, so uncapped
// ILP-II takes zero B&B nodes on the real T1/20/8 tiles, and on 200
// synthetic cap-model tiles it certifies (zero nodes) and still matches the
// exact DP optimum.
func TestDualCertifiesCapModelCurves(t *testing.T) {
	eng, instances := t1Tiles(t)
	res, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	if res.ILPNodes != 0 {
		t.Fatalf("uncapped T1/20/8 tiles reached branch-and-bound: %d nodes", res.ILPNodes)
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		in := synthInstance(rng, 2+rng.Intn(8))
		a, sol, err := SolveILPII(in, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Nodes != 0 {
			t.Fatalf("trial %d: convex cap-model instance branched (%d nodes)", trial, sol.Nodes)
		}
		if err := in.Valid(a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dpA, err := SolveDP(in)
		if err != nil {
			t.Fatal(err)
		}
		c, opt := in.Cost(a), in.Cost(dpA)
		if math.Abs(c-opt) > 1e-9*math.Max(opt, 1e-30)+1e-25 {
			t.Fatalf("trial %d: ILP-II cost %g, DP optimum %g", trial, c, opt)
		}
	}
}

// TestSolveILPIIContextCancelled: a cancelled context stops ILP-II in the
// hull sweep (which polls per column and every sweepPollEvery heap pops),
// before the warm start is built or the searcher is set up, and the same
// scratch still solves the tile with a live context.
func TestSolveILPIIContextCancelled(t *testing.T) {
	in := dualSynthInstance(rand.New(rand.NewSource(3)), 8, true)
	if in.F == 0 {
		in.F = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := NewSolveScratch()
	a := make(Assignment, len(in.Columns))
	noBranch := func() *ilp.Options {
		t.Fatal("cancelled solve reached branch-and-bound")
		return nil
	}
	_, st, err := sc.solveILPII(ctx, in, nil, a, noBranch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st != (solveStats{}) || slices.ContainsFunc(a, func(m int) bool { return m != 0 }) {
		t.Fatalf("cancelled solve got past the hull sweep: stats %+v, assignment %v", st, a)
	}
	if _, _, err := sc.solveILPII(context.Background(), in, nil, a, defaultOpts(sc)); err != nil {
		t.Fatalf("solve after cancelled solve: %v", err)
	}
	if err := in.Valid(a); err != nil {
		t.Fatal(err)
	}
}

// jitteredChip is the chip benchmark's jittered input: testcases.Chip's
// cell grammar (one two-net horizontal line pair per cell), with each
// cell's line pair shifted by one of 8 vertical offsets 100 nm apart and
// its ends inset by one of 8 insets 200 nm apart, the variant drawn per
// cell from the seed.
func jitteredChip(t *testing.T, spec testcases.ChipSpec, seed int64) *layout.Layout {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cx, cy := spec.CellsX, spec.CellsY
	l := &layout.Layout{
		Name:   "chip_jittered",
		Die:    geom.Rect{X2: int64(cx) * spec.CellW, Y2: int64(cy) * spec.CellH},
		Layers: []layout.Layer{{Name: "m3", Dir: layout.Horizontal, Width: spec.Width}},
	}
	for y := 0; y < cy; y++ {
		for x := 0; x < cx; x++ {
			v := rng.Intn(64)
			dy, inset := int64(v%8)*100-300, 400+int64(v/8)*200
			x0, x1 := int64(x)*spec.CellW+inset, int64(x+1)*spec.CellW-inset
			for k, yOff := range [2]int64{spec.YLow, spec.YHigh} {
				yy := int64(y)*spec.CellH + yOff + dy
				a, b := geom.Point{X: x0, Y: yy}, geom.Point{X: x1, Y: yy}
				l.Nets = append(l.Nets, &layout.Net{
					Name:     fmt.Sprintf("c%d_%d_%d", x, y, k),
					Source:   layout.Pin{P: a},
					Sinks:    []layout.Pin{{P: b}},
					Segments: []layout.Segment{{Layer: 0, A: a, B: b, Width: spec.Width}},
				})
			}
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

// dualSynthInstance builds a random tile whose exact cost curves are small-
// integer-valued: every objective sum is exact in float64 and distinct
// objectives differ by at least 1, so optimality comparisons against the
// branch-and-bound path are bit-exact rather than tolerance-based. convex
// selects non-decreasing integer marginals (every integer point a hull
// vertex — the certificate path); otherwise marginals may dip, grounded-fill
// style, so the true curve can sit strictly above its hull and the
// certificate can fail and send the tile to branch-and-bound.
func dualSynthInstance(rng *rand.Rand, nCols int, convex bool) *Instance {
	in := &Instance{}
	total := 0
	for k := 0; k < nCols; k++ {
		capacity := 1 + rng.Intn(5)
		cv := ColumnVar{
			Col:    &scanline.Column{Col: k, Capacity: capacity},
			MaxM:   capacity,
			NetLow: -1, NetHigh: -1,
		}
		if rng.Float64() < 0.85 {
			n := capacity + 1
			cost := make([]float64, n)
			dc := make([]float64, n)
			marg := float64(rng.Intn(3))
			for m := 1; m < n; m++ {
				if convex {
					marg += float64(rng.Intn(4))
				} else {
					marg = float64(rng.Intn(8))
				}
				cost[m] = cost[m-1] + marg
				dc[m] = dc[m-1] + float64(1+rng.Intn(3))
			}
			cv.CostExact = cost
			cv.DeltaC = dc
			cv.LinearSlope = cost[n-1] / float64(capacity)
			cv.NetLow = rng.Intn(3)
			cv.RLow = 1
			cv.REffLow = 1
			if rng.Intn(3) == 0 {
				cv.NetHigh = 3 + rng.Intn(2)
				cv.RHigh = 1
				cv.REffHigh = 1
			}
		}
		in.Columns = append(in.Columns, cv)
		total += cv.MaxM
	}
	if total > 0 {
		in.F = rng.Intn(total + 1)
	}
	return in
}

// dualRandomCaps caps each net at a random fraction of what the uncapped
// marginal-greedy assignment spends on it, so both cap-repaired warm starts
// and caps the warm start already satisfies occur across trials.
func dualRandomCaps(rng *rand.Rand, in *Instance) *NetCap {
	inc := SolveMarginalGreedy(in)
	spend := map[int]float64{}
	for k, m := range inc {
		cv := &in.Columns[k]
		if m <= 0 || cv.DeltaC == nil {
			continue
		}
		if cv.NetLow >= 0 {
			spend[cv.NetLow] += cv.DeltaC[m] * cv.REffLow
		}
		if cv.NetHigh >= 0 {
			spend[cv.NetHigh] += cv.DeltaC[m] * cv.REffHigh
		}
	}
	nc := &NetCap{PerNet: make([]float64, 5)}
	for net, s := range spend {
		// 0.3..1.3 of the greedy spend: sometimes binding, sometimes slack.
		nc.PerNet[net] = s * (0.3 + rng.Float64())
	}
	return nc
}

// tableEngine prepares one EXPERIMENTS table grid point the way the table
// harness does: an engine over the dissection and the harness density
// targets (minimum 0.15, maximum 0.7, seed 1). Config.Weighted is read when
// instances are built, so one engine and budget serve both tables.
func tableEngine(t *testing.T, l *layout.Layout, dis *layout.Dissection, rule layout.FillRule) (*Engine, density.Budget) {
	t.Helper()
	eng, err := NewEngine(l, dis, rule, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid := density.NewGrid(l, dis, eng.Occ, 0)
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: 0.15, MaxDensity: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, budget
}

// t1Tiles is the unweighted T1/20/8 table grid point (2032 tiles), the
// real-tile fixture of the solver-agreement, certificate and steady-state
// allocation tests. The engine's memo is off, so every run solves every
// tile.
func t1Tiles(t *testing.T) (*Engine, []*Instance) {
	t.Helper()
	spec := testcases.T1()
	l, err := testcases.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := layout.NewDissection(l.Die, testcases.WindowNM(20), 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, budget := tableEngine(t, l, dis, spec.Rule)
	eng.memo = nil
	return eng, mustInstances(t, eng, budget)
}

// canonCost is an assignment's exact cost with its addends summed in sorted
// order. Float addition is not associative, so two optima that permute fill
// among equal-cost columns may differ in the last ulp when summed in column
// order; the sorted sum makes bitwise cost comparisons permutation-invariant.
func canonCost(in *Instance, a Assignment) float64 {
	var addends []float64
	for k, m := range a {
		if m > 0 && in.Columns[k].CostExact != nil {
			addends = append(addends, in.Columns[k].CostExact[m])
		}
	}
	sort.Float64s(addends)
	sum := 0.0
	for _, v := range addends {
		sum += v
	}
	return sum
}

// linearized clones an instance with each costed column's exact curve
// replaced by the linear curve ILP-I optimizes (LinearSlope·m), so an ILP-II
// solve and a decoded ILP-I optimum compare bitwise on ILP-I's own program
// rather than within its linearization error.
func linearized(in *Instance) *Instance {
	lin := *in
	lin.Columns = slices.Clone(in.Columns)
	for k := range lin.Columns {
		cv := &lin.Columns[k]
		if cv.CostExact == nil {
			continue
		}
		cost := make([]float64, len(cv.CostExact))
		for m := 1; m < len(cost); m++ {
			cost[m] = cv.LinearSlope * float64(m)
		}
		cv.CostExact = cost
	}
	return &lin
}

// requireSameOptimum fails unless a solve and the row-based reference agree
// on a tile's status and, for solved tiles, on the objective to 1e-6
// relative. Assignments may differ between equal-cost optima.
func requireSameOptimum(t *testing.T, label string, in *Instance, got, want *ilp.Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s tile (%d,%d): status %v, row-based %v", label, in.I, in.J, got.Status, want.Status)
	}
	if got.Status != ilp.Optimal && got.Status != ilp.Feasible {
		return
	}
	if math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
		t.Fatalf("%s tile (%d,%d): objective %g, row-based %g", label, in.I, in.J, got.Objective, want.Objective)
	}
}

// TestTableTilesMatchReferenceSolvers holds every real T1/20/8 tile to
// three independent references:
//   - the seeded branch-and-bound (ILP-I warm-started from its greedy
//     incumbent, ILP-II seeded with marginal greedy) reaches the same status
//     and objective as the row-based reference solver on both programs;
//   - SolveILPII's (hull-certified) cost equals the decoded branch-and-bound
//     ILP-II optimum bitwise;
//   - SolveILPII on the linearized tile equals the ILP-I optimum bitwise.
func TestTableTilesMatchReferenceSolvers(t *testing.T) {
	_, instances := t1Tiles(t)
	opts := ilp.Options{MaxNodes: 20000}
	compared := 0
	for _, in := range instances {
		p, inc := BuildILPI(in)
		if p == nil {
			continue // nothing to place: every path returns the zero assignment
		}
		o := opts
		o.Incumbent, o.WarmStart = inc, true
		solI, err := ilp.Solve(p, &o)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ilp.SolveRowBased(p, &opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameOptimum(t, "ILP-I", in, solI, ref)

		g := BuildILPII(in, nil)
		o = opts
		o.Incumbent = g.Incumbent
		solII, err := ilp.Solve(g.P, &o)
		if err != nil {
			t.Fatal(err)
		}
		if ref, err = ilp.SolveRowBased(g.P, &opts); err != nil {
			t.Fatal(err)
		}
		requireSameOptimum(t, "ILP-II", in, solII, ref)
		if solI.Status != ilp.Optimal || solII.Status != ilp.Optimal {
			continue // a node-limited solve pins no optimum
		}

		aII, _, err := SolveILPII(in, &opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonCost(in, aII), canonCost(in, g.Decode(solII.X)); got != want {
			t.Fatalf("tile (%d,%d): certified ILP-II cost %g != B&B ILP-II optimum %g", in.I, in.J, got, want)
		}
		lin := linearized(in)
		aLin, _, err := SolveILPII(lin, &opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		aI := make(Assignment, len(in.Columns))
		for k := range aI {
			aI[k] = int(solI.X[k] + 0.5)
		}
		if got, want := canonCost(lin, aLin), canonCost(lin, aI); got != want {
			t.Fatalf("tile (%d,%d): linearized ILP-II cost %g != ILP-I optimum %g", in.I, in.J, got, want)
		}
		compared++
	}
	t.Logf("%d of %d tiles compared to proven optima", compared, len(instances))
	if compared < len(instances)/2 {
		t.Fatalf("only %d of %d tiles reached a proven optimum on both programs", compared, len(instances))
	}
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
			hull, _, err := sc.hullSweep(context.Background(), in)
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
