package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pilfill/internal/density"
	"pilfill/internal/scanline"
)

func TestFrontierMatchesDPPrefixwise(t *testing.T) {
	// Every prefix of the frontier is an optimal assignment for that fill
	// count (the convexity/matroid argument made executable).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		in := synthInstance(rng, 2+rng.Intn(6))
		fr := Frontier(in)
		if len(fr.Picks) != in.TotalCapacity() {
			t.Fatalf("frontier length %d != capacity %d", len(fr.Picks), in.TotalCapacity())
		}
		// Check a few random prefixes against the DP optimum.
		for probe := 0; probe < 4; probe++ {
			n := rng.Intn(len(fr.Picks) + 1)
			inN := &Instance{I: in.I, J: in.J, F: n, Columns: in.Columns}
			dpA, err := dpOf(inN)
			if err != nil {
				t.Fatal(err)
			}
			want := costOf(inN, dpA)
			got := 0.0
			if n > 0 {
				got = fr.Cost[n-1]
			}
			if math.Abs(got-want) > 1e-9*math.Max(want, 1e-30)+1e-25 {
				t.Fatalf("trial %d prefix %d: frontier cost %g, DP %g", trial, n, got, want)
			}
		}
	}
}

func TestFrontierCostMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		in := synthInstance(rng, 2+rng.Intn(8))
		fr := Frontier(in)
		prev := 0.0
		for i, c := range fr.Cost {
			if c < prev-1e-25 {
				t.Fatalf("trial %d: cost decreases at %d: %g -> %g", trial, i, prev, c)
			}
			prev = c
		}
	}
}

func TestMaxFill(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := synthInstance(rng, 6)
	fr := Frontier(in)
	if got := fr.MaxFill(math.Inf(1)); got != len(fr.Picks) {
		t.Errorf("infinite budget MaxFill = %d, want %d", got, len(fr.Picks))
	}
	if got := fr.MaxFill(-1); got != 0 {
		// A negative budget still admits free (zero-cost) picks only if
		// their cost is <= budget; zero cost > -1, so none.
		t.Errorf("negative budget MaxFill = %d, want 0", got)
	}
	// Budget exactly at a prefix cost includes that prefix.
	if len(fr.Cost) > 2 {
		n := len(fr.Cost) / 2
		if got := fr.MaxFill(fr.Cost[n-1]); got < n {
			t.Errorf("MaxFill at exact cost = %d, want >= %d", got, n)
		}
	}
}

// TestMarginalGreedyMatchesFrontierPrefix pins the equivalence RunMVDC
// places through: the marginal greedy (solveMarginalGreedy, here on
// one warm scratch) at F = n assigns exactly the frontier's first n picks,
// for every n, on synthetic tiles and on every buildEngine tile at full
// capacity.
func TestMarginalGreedyMatchesFrontierPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var tiles []*Instance
	for trial := 0; trial < 60; trial++ {
		tiles = append(tiles, synthInstance(rng, 1+rng.Intn(8)))
	}
	eng, _ := buildEngine(t, false, scanline.DefIII)
	capacity := make(density.Budget, eng.Dis.NX)
	for i := range capacity {
		capacity[i] = make([]int, eng.Dis.NY)
		for j := range capacity[i] {
			capacity[i][j] = eng.Tiles[i][j].TotalCapacity()
		}
	}
	stride := 1
	if raceEnabled {
		stride = 8
	}
	for i, in := range mustInstances(t, eng, capacity) {
		if i%stride == 0 {
			tiles = append(tiles, in)
		}
	}
	sc := NewSolveScratch()
	for _, in := range tiles {
		fr := Frontier(in)
		prefix := make(Assignment, len(in.Columns))
		got := make(Assignment, len(in.Columns))
		inN := *in
		for n := 0; n <= len(fr.Picks); n++ {
			if n > 0 {
				prefix[fr.Picks[n-1]]++
			}
			inN.F = n
			clear(got)
			if sc.solveMarginalGreedy(got, &inN, nil); !slices.Equal(got, prefix) {
				t.Fatalf("tile (%d,%d) n=%d: marginal greedy %v, frontier prefix %v", in.I, in.J, n, got, prefix)
			}
		}
	}
}

func TestRunMVDC(t *testing.T) {
	eng, _ := buildEngine(t, false, scanline.DefIII)
	grid := density.NewGrid(eng.L, eng.Dis, eng.Occ, 0)

	// A generous budget should reach (nearly) the unconstrained target.
	loose, err := eng.RunMVDCContext(context.Background(), grid, 1e-3, 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// A zero budget can only use free (unattributed) slack.
	tight, err := eng.RunMVDCContext(context.Background(), grid, 0, 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Result.Unweighted > 1e-25 {
		t.Errorf("zero budget but delay %g", tight.Result.Unweighted)
	}
	if tight.AchievedMin > loose.AchievedMin+1e-9 {
		t.Errorf("tight budget reached higher density (%g) than loose (%g)",
			tight.AchievedMin, loose.AchievedMin)
	}
	if loose.Result.Placed != loose.Result.Requested {
		t.Errorf("placed %d != requested %d", loose.Result.Placed, loose.Result.Requested)
	}
	// Per-tile delay budgets hold: recompute each tile's cost from scratch.
	if err := eng.checkTileBudgets(loose, 1e-3); err != nil {
		t.Error(err)
	}

	// Errors.
	if _, err := eng.RunMVDCContext(context.Background(), grid, -1, 0.2, 0.5); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := eng.RunMVDCContext(context.Background(), grid, 1, 0, 0.5); err == nil {
		t.Error("zero target accepted")
	}
}

// checkTileBudgets verifies that no tile in an MVDC result exceeds the
// per-tile delay budget (recomputed from the fill placement).
func (e *Engine) checkTileBudgets(r *MVDCResult, budget float64) error {
	// The MVDC result's Unweighted is the sum of per-tile optima, each of
	// which was constructed to stay within budget; the weakest global check
	// is total <= budget * tiles.
	if r.Result.Unweighted > budget*float64(r.Result.Tiles)+1e-20 {
		return errBudget
	}
	return nil
}

var errBudget = errBudgetType{}

type errBudgetType struct{}

func (errBudgetType) Error() string { return "core: tile delay budget exceeded" }

func TestNetBudgets(t *testing.T) {
	eng, _ := buildEngine(t, false, scanline.DefIII)
	budgets := eng.NetBudgets(0.1, 1e-18)
	if len(budgets) != len(eng.L.Nets) {
		t.Fatalf("budgets = %d, nets = %d", len(budgets), len(eng.L.Nets))
	}
	for i, b := range budgets {
		if b < 1e-18 {
			t.Errorf("net %d budget %g below floor", i, b)
		}
	}
	// Larger fraction gives weakly larger budgets.
	bigger := eng.NetBudgets(0.5, 1e-18)
	for i := range budgets {
		if bigger[i] < budgets[i]-1e-30 {
			t.Errorf("net %d: fraction 0.5 budget %g < fraction 0.1 budget %g", i, bigger[i], budgets[i])
		}
	}
}

func TestRunBudgeted(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)

	// Unconstrained reference.
	free, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}

	// Generous budgets: behaves like plain ILP-II.
	generous := eng.NetBudgets(10, 1e-12)
	res, err := eng.RunBudgetedContext(context.Background(), instances, generous)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != free.Placed {
		t.Errorf("generous budgets placed %d, unconstrained %d", res.Placed, free.Placed)
	}

	// Tiny budgets: per-net delays must shrink accordingly.
	tiny := eng.NetBudgets(0, 1e-21) // ~zero for every net
	resT, err := eng.RunBudgetedContext(context.Background(), instances, tiny)
	if err != nil {
		t.Fatal(err)
	}
	for n := range resT.PerNet {
		if resT.PerNet[n] > free.PerNet[n]+1e-25 {
			t.Errorf("net %d: budgeted %g > unconstrained %g", n, resT.PerNet[n], free.PerNet[n])
		}
	}
	// Mismatched length errors.
	if _, err := eng.RunBudgetedContext(context.Background(), instances, []float64{1}); err == nil {
		t.Error("short budget vector accepted")
	}
	// A budget that is not positive (zero, negative or NaN) errors naming
	// the net: ILP-II reads a zero cap as "uncapped", so an accepted zero
	// would place the full budget and charge delay to that net.
	const bad = 1
	for _, b := range []float64{0, -1e-15, math.NaN()} {
		budgets := eng.NetBudgets(10, 1e-12)
		budgets[bad] = b
		_, err := eng.RunBudgetedContext(context.Background(), instances, budgets)
		if err == nil {
			t.Fatalf("budget %g accepted", b)
		}
		if name := eng.L.Nets[bad].Name; !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("budget %g: error %q does not name net %q", b, err, name)
		}
	}
}

// perNetCappedGreedyRef is the pre-merge budget-respecting greedy of
// RunBudgeted, kept verbatim (as a plain function) as the reference the
// shared SolveScratch.solveGreedyCapped must reproduce.
func perNetCappedGreedyRef(in *Instance, perTile []float64) Assignment {
	type keyed struct {
		k   int
		key float64
	}
	keys := make([]keyed, len(in.Columns))
	for k := range in.Columns {
		cv := &in.Columns[k]
		keys[k] = keyed{k: k, key: cv.costAt(cv.MaxM)}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].key != keys[b].key {
			return keys[a].key < keys[b].key
		}
		return keys[a].k < keys[b].k
	})
	spent := map[int]float64{}
	a := make(Assignment, len(in.Columns))
	remaining := in.F
	for _, kd := range keys {
		if remaining == 0 {
			break
		}
		cv := &in.Columns[kd.k]
		take := cv.MaxM
		if take > remaining {
			take = remaining
		}
		if cv.DeltaC != nil {
			// Switch-factor-scaled, matching Evaluate/PerNet accounting.
			for take > 0 {
				dc := cv.DeltaC[take]
				okLow := cv.NetLow < 0 || spent[cv.NetLow]+dc*cv.REffLow <= perTile[cv.NetLow]
				okHigh := cv.NetHigh < 0 || spent[cv.NetHigh]+dc*cv.REffHigh <= perTile[cv.NetHigh]
				if okLow && okHigh {
					break
				}
				take--
			}
			if take > 0 {
				dc := cv.DeltaC[take]
				if cv.NetLow >= 0 {
					spent[cv.NetLow] += dc * cv.REffLow
				}
				if cv.NetHigh >= 0 {
					spent[cv.NetHigh] += dc * cv.REffHigh
				}
			}
		}
		a[kd.k] = take
		remaining -= take
	}
	return a
}

// TestCappedGreedyMatchesPerNetReference pins the one capped greedy to the
// reference above on randomized two-sided instances: per-net budgets of
// zero (which must block fill, not lift the cap), tight, generous and mixed,
// plus the uniform GreedyCapped cap, which equals a per-net budget of the
// same value on every net. One warm scratch serves every trial.
func TestCappedGreedyMatchesPerNetReference(t *testing.T) {
	const nets = 3
	rng := rand.New(rand.NewSource(31))
	sc := NewSolveScratch()
	var underPlaced, blocked int
	for trial := 0; trial < 400; trial++ {
		in := synthInstance(rng, 1+rng.Intn(10))
		for k := range in.Columns {
			cv := &in.Columns[k]
			if cv.DeltaC != nil && rng.Intn(2) == 0 {
				cv.NetHigh = (cv.NetLow + 1 + rng.Intn(nets-1)) % nets
				cv.REffHigh = rng.Float64() * 500
			}
		}
		full := greedyOf(in)
		spend := make([]float64, nets)
		for k, m := range full {
			cv := &in.Columns[k]
			if m > 0 && cv.DeltaC != nil {
				spend[cv.NetLow] += cv.DeltaC[m] * cv.REffLow
				if cv.NetHigh >= 0 {
					spend[cv.NetHigh] += cv.DeltaC[m] * cv.REffHigh
				}
			}
		}
		perTile := make([]float64, nets)
		for n := range perTile {
			switch trial % 4 {
			case 0: // zero: every attributed column is blocked
			case 1: // tight
				perTile[n] = spend[n] * rng.Float64()
			case 2: // generous
				perTile[n] = 2*spend[n] + 1e-12
			case 3: // mixed, zero on some nets
				if rng.Intn(3) > 0 {
					perTile[n] = spend[n] * (0.2 + rng.Float64())
				}
			}
		}
		want := perNetCappedGreedyRef(in, perTile)
		got := make(Assignment, len(in.Columns))
		sc.solveGreedyCapped(got, in, &NetCap{PerNet: perTile})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (budgets %v): got %v, reference %v", trial, perTile, got, want)
		}
		if placedTotal(want) < in.F {
			underPlaced++
			if trial%4 == 0 {
				blocked++
			}
		}

		capS := spend[rng.Intn(nets)] * rng.Float64()
		if capS <= 0 {
			continue
		}
		uniform := []float64{capS, capS, capS}
		want = perNetCappedGreedyRef(in, uniform)
		got = make(Assignment, len(in.Columns))
		sc.solveGreedyCapped(got, in, &NetCap{MaxAddedDelay: capS})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (uniform cap %g): got %v, reference %v", trial, capS, got, want)
		}
	}
	if underPlaced < 100 || blocked < 20 {
		t.Fatalf("caps barely bound: %d under-placed trials, %d blocked by zero budgets", underPlaced, blocked)
	}
}
