package density

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// testGrid builds a Grid directly from synthetic per-tile data, bypassing a
// full layout: nx x ny tiles of side `tile` nm, with given areas and slack.
func testGrid(t *testing.T, nx, ny, r int, tile int64, area func(i, j int) int64, slack func(i, j int) int) *Grid {
	t.Helper()
	die := geom.Rect{X1: 0, Y1: 0, X2: int64(nx) * tile, Y2: int64(ny) * tile}
	d, err := layout.NewDissection(die, tile*int64(r), r)
	if err != nil {
		t.Fatal(err)
	}
	g := &Grid{D: d, FeatureArea: 300 * 300}
	g.TileArea = make([][]int64, nx)
	g.TileSlack = make([][]int, nx)
	for i := 0; i < nx; i++ {
		g.TileArea[i] = make([]int64, ny)
		g.TileSlack[i] = make([]int, ny)
		for j := 0; j < ny; j++ {
			g.TileArea[i][j] = area(i, j)
			g.TileSlack[i][j] = slack(i, j)
		}
	}
	return g
}

func TestWindowDensityUniform(t *testing.T) {
	// Every tile 25% dense: every window must be exactly 0.25.
	tile := int64(2000)
	g := testGrid(t, 8, 8, 2, tile,
		func(i, j int) int64 { return tile * tile / 4 },
		func(i, j int) int { return 10 })
	wx, wy := g.D.NumWindows()
	for i := 0; i < wx; i++ {
		for j := 0; j < wy; j++ {
			if d := g.WindowDensity(i, j, nil); math.Abs(d-0.25) > 1e-12 {
				t.Fatalf("window (%d,%d) density %g, want 0.25", i, j, d)
			}
		}
	}
	minD, maxD := g.Stats(nil)
	if minD != maxD {
		t.Errorf("uniform grid has variation %g", maxD-minD)
	}
}

func TestWindowDensityWithFill(t *testing.T) {
	tile := int64(2000)
	g := testGrid(t, 4, 4, 2, tile,
		func(i, j int) int64 { return 0 },
		func(i, j int) int { return 100 })
	b := g.NewBudget()
	b[0][0] = 4 // 4 features of 300x300 in tile (0,0)
	got := g.WindowDensity(0, 0, b)
	want := 4.0 * 300 * 300 / float64(4000*4000)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("density = %g, want %g", got, want)
	}
	// A window not containing tile (0,0) is unaffected.
	if d := g.WindowDensity(2, 2, b); d != 0 {
		t.Errorf("far window density = %g, want 0", d)
	}
}

func TestMonteCarloLiftsMinDensity(t *testing.T) {
	// A density hole in one corner; plenty of slack everywhere.
	tile := int64(2000)
	g := testGrid(t, 8, 8, 2, tile,
		func(i, j int) int64 {
			if i < 2 && j < 2 {
				return 0
			}
			return tile * tile / 3
		},
		func(i, j int) int { return 40 })
	before, _ := g.Stats(nil)
	budget, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.30, MaxDensity: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if achieved < 0.30-1e-9 {
		t.Errorf("achieved min %g < target 0.30", achieved)
	}
	if achieved <= before {
		t.Errorf("no improvement: %g -> %g", before, achieved)
	}
	if err := checkBudget(g, budget); err != nil {
		t.Error(err)
	}
	// Verify against a fresh full recomputation.
	minD, maxD := g.Stats(budget)
	if math.Abs(minD-achieved) > 1e-9 {
		t.Errorf("achieved %g but recomputed min %g", achieved, minD)
	}
	if maxD > 0.5+1e-9 {
		t.Errorf("max density %g exceeds bound", maxD)
	}
}

func TestMonteCarloRespectsSlack(t *testing.T) {
	// No slack anywhere: budget must be all zeros.
	tile := int64(2000)
	g := testGrid(t, 4, 4, 2, tile,
		func(i, j int) int64 { return 0 },
		func(i, j int) int { return 0 })
	budget, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if budget.Total() != 0 {
		t.Errorf("budget total %d, want 0", budget.Total())
	}
	if achieved != 0 {
		t.Errorf("achieved %g, want 0", achieved)
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	tile := int64(2000)
	mk := func() *Grid {
		return testGrid(t, 6, 6, 3, tile,
			func(i, j int) int64 { return int64(i*j) * 100000 },
			func(i, j int) int { return 20 })
	}
	b1, a1, err := MonteCarlo(mk(), MonteCarloOptions{TargetMin: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b2, a2, err := MonteCarlo(mk(), MonteCarloOptions{TargetMin: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || b1.Total() != b2.Total() {
		t.Fatal("same seed, different result")
	}
	for i := range b1 {
		for j := range b1[i] {
			if b1[i][j] != b2[i][j] {
				t.Fatalf("budgets differ at (%d,%d)", i, j)
			}
		}
	}
}

func TestMonteCarloExactAccounting(t *testing.T) {
	// Regression: the budgeter used to accumulate fa/winArea float deltas into
	// each window density on every insertion. Over tens of thousands of
	// insertions the rounding drift compounded, so the reported achieved
	// minimum disagreed with the exactly recomputed one and windows could
	// creep past MaxDensity. With integer accounting both figures come from
	// the same exact (base + count·featureArea)/windowArea quotient, so they
	// must agree bit for bit.
	tile := int64(8000)
	g := testGrid(t, 12, 12, 3, tile,
		func(i, j int) int64 { return tile * tile / int64(3+(i*7+j*13)%5) },
		func(i, j int) int { return 4000 })
	const maxD = 0.34
	budget, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.32, MaxDensity: maxD, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if budget.Total() < 10000 {
		t.Fatalf("budget total %d: too few insertions to exercise drift", budget.Total())
	}
	if err := checkBudget(g, budget); err != nil {
		t.Fatal(err)
	}
	minD, maxGot := g.Stats(budget)
	if achieved != minD {
		t.Errorf("achieved %v != recomputed min %v (diff %g)", achieved, minD, achieved-minD)
	}
	if maxGot > maxD {
		t.Errorf("max window density %v exceeds bound %v", maxGot, maxD)
	}
}

func TestMonteCarloBadTarget(t *testing.T) {
	g := testGrid(t, 4, 4, 2, 2000,
		func(i, j int) int64 { return 0 }, func(i, j int) int { return 1 })
	if _, _, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0}); err == nil {
		t.Error("TargetMin=0 accepted")
	}
}

func TestMaxMinDensity(t *testing.T) {
	tile := int64(2000)
	g := testGrid(t, 4, 4, 2, tile,
		func(i, j int) int64 { return tile * tile / 10 },
		func(i, j int) int { return 5 })
	best, err := MaxMinDensity(g, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := g.Stats(nil)
	if best < base {
		t.Errorf("MaxMinDensity %g below unfilled min %g", best, base)
	}
}

func TestNewGridFromLayout(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 16000, Y2: 16000}
	l := &layout.Layout{
		Name:   "g",
		Die:    die,
		Layers: []layout.Layer{{Name: "m3", Dir: layout.Horizontal, Width: 200}},
		Nets: []*layout.Net{{
			Name:   "n",
			Source: layout.Pin{P: geom.Point{X: 1000, Y: 8000}},
			Sinks:  []layout.Pin{{P: geom.Point{X: 15000, Y: 8000}}},
			Segments: []layout.Segment{{
				Layer: 0,
				A:     geom.Point{X: 1000, Y: 8000},
				B:     geom.Point{X: 15000, Y: 8000},
				Width: 200,
			}},
		}},
	}
	d, err := layout.NewDissection(die, 8000, 2)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := layout.NewSiteGrid(die, layout.FillRule{Feature: 300, Gap: 100, Buffer: 150})
	if err != nil {
		t.Fatal(err)
	}
	occ := layout.NewOccupancy(l, sg, 0)
	g := NewGrid(l, d, occ, 0)
	// Total tile area equals the wire's drawn area.
	var total int64
	for i := range g.TileArea {
		for j := range g.TileArea[i] {
			total += g.TileArea[i][j]
		}
	}
	if want := l.Nets[0].Segments[0].Rect().Area(); total != want {
		t.Errorf("total area %d, want %d", total, want)
	}
	// Total slack equals free sites whose centers are in the die (all).
	var slackTotal int
	for i := range g.TileSlack {
		for j := range g.TileSlack[i] {
			slackTotal += g.TileSlack[i][j]
		}
	}
	if slackTotal != freeSites(occ) {
		t.Errorf("slack %d, want %d", slackTotal, freeSites(occ))
	}
}

// TestQuickMonteCarloInvariants: budgets never exceed slack, never push any
// window above the bound, and the achieved min matches a recomputation.
func TestQuickMonteCarloInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := 4 + rng.Intn(4)
		r := []int{2, 2, 4}[rng.Intn(3)]
		if nx < r {
			nx = r
		}
		tile := int64(2000)
		die := geom.Rect{X1: 0, Y1: 0, X2: int64(nx) * tile, Y2: int64(nx) * tile}
		d, err := layout.NewDissection(die, tile*int64(r), r)
		if err != nil {
			return false
		}
		g := &Grid{D: d, FeatureArea: 300 * 300}
		g.TileArea = make([][]int64, nx)
		g.TileSlack = make([][]int, nx)
		for i := 0; i < nx; i++ {
			g.TileArea[i] = make([]int64, nx)
			g.TileSlack[i] = make([]int, nx)
			for j := 0; j < nx; j++ {
				g.TileArea[i][j] = rng.Int63n(tile * tile / 2)
				g.TileSlack[i][j] = rng.Intn(30)
			}
		}
		u := 0.6
		budget, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.4, MaxDensity: u, Seed: seed})
		if err != nil {
			return false
		}
		if checkBudget(g, budget) != nil {
			return false
		}
		minD, maxD := g.Stats(budget)
		if math.Abs(minD-achieved) > 1e-9 {
			return false
		}
		// Fill insertion must not create violations of the upper bound that
		// did not already exist in the unfilled layout.
		_, maxBefore := g.Stats(nil)
		return maxD <= math.Max(u, maxBefore)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFillNeverDecreasesAnyWindow: adding the budget can only raise
// window densities.
func TestQuickFillNeverDecreasesAnyWindow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tile := int64(2000)
		nx := 6
		die := geom.Rect{X1: 0, Y1: 0, X2: int64(nx) * tile, Y2: int64(nx) * tile}
		d, err := layout.NewDissection(die, tile*2, 2)
		if err != nil {
			return false
		}
		g := &Grid{D: d, FeatureArea: 300 * 300}
		g.TileArea = make([][]int64, nx)
		g.TileSlack = make([][]int, nx)
		for i := 0; i < nx; i++ {
			g.TileArea[i] = make([]int64, nx)
			g.TileSlack[i] = make([]int, nx)
			for j := 0; j < nx; j++ {
				g.TileArea[i][j] = rng.Int63n(tile * tile / 2)
				g.TileSlack[i][j] = rng.Intn(20)
			}
		}
		budget, _, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.3, Seed: seed})
		if err != nil {
			return false
		}
		wx, wy := g.D.NumWindows()
		for i := 0; i < wx; i++ {
			for j := 0; j < wy; j++ {
				if g.WindowDensity(i, j, budget) < g.WindowDensity(i, j, nil)-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// referenceMonteCarlo is the full-scan budgeter the heap-driven MonteCarlo
// replaced, kept verbatim as the oracle it must match bit for bit: every
// insertion rescans all windows for the emptiest live one and re-checks
// MaxDensity against every window covering every candidate tile.
func referenceMonteCarlo(g *Grid, opts MonteCarloOptions) (Budget, float64, error) {
	if opts.TargetMin <= 0 {
		return nil, 0, fmt.Errorf("density: TargetMin = %g", opts.TargetMin)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	wx, wy := g.D.NumWindows()
	budget := g.NewBudget()
	slack := make([][]int, g.D.NX)
	for i := range slack {
		slack[i] = append([]int(nil), g.TileSlack[i]...)
	}

	// Window state in exact integers: the drawn base area and the number of
	// fill features added so far. Densities are derived on demand as
	// (base + count·featureArea)/windowArea — one division from exact
	// integers — instead of incrementally accumulating float deltas, whose
	// rounding drift compounds over millions of insertions until the budgeter
	// both overshoots MaxDensity and mis-ranks the emptiest window.
	winBase := make([][]int64, wx)
	winCnt := make([][]int64, wx)
	winArea := make([][]int64, wx)
	for i := 0; i < wx; i++ {
		winBase[i] = make([]int64, wy)
		winCnt[i] = make([]int64, wy)
		winArea[i] = make([]int64, wy)
		for j := 0; j < wy; j++ {
			var base int64
			for di := 0; di < g.D.R; di++ {
				for dj := 0; dj < g.D.R; dj++ {
					ti, tj := i+di, j+dj
					if ti >= g.D.NX || tj >= g.D.NY {
						continue
					}
					base += g.TileArea[ti][tj]
				}
			}
			winBase[i][j] = base
			winArea[i][j] = g.D.WindowRect(i, j).Area()
		}
	}
	density := func(wi, wj int) float64 {
		return float64(winBase[wi][wj]+winCnt[wi][wj]*g.FeatureArea) / float64(winArea[wi][wj])
	}
	// windowsOver iterates window origins covering tile (ti, tj).
	windowsOver := func(ti, tj int, visit func(wi, wj int)) {
		loI := ti - g.D.R + 1
		if loI < 0 {
			loI = 0
		}
		loJ := tj - g.D.R + 1
		if loJ < 0 {
			loJ = 0
		}
		for wi := loI; wi <= ti && wi < wx; wi++ {
			for wj := loJ; wj <= tj && wj < wy; wj++ {
				visit(wi, wj)
			}
		}
	}

	dead := make(map[[2]int]bool) // windows that cannot be improved further
	for {
		// Find the emptiest improvable window.
		minI, minJ := -1, -1
		minD := opts.TargetMin
		for i := 0; i < wx; i++ {
			for j := 0; j < wy; j++ {
				if dead[[2]int{i, j}] {
					continue
				}
				if d := density(i, j); d < minD {
					minD = d
					minI, minJ = i, j
				}
			}
		}
		if minI < 0 {
			break // every live window is at or above target
		}
		// Candidate tiles: slack tiles in this window whose insertion does
		// not push any covering window over MaxDensity.
		type cand struct {
			ti, tj int
			w      int
		}
		var cands []cand
		totalW := 0
		for di := 0; di < g.D.R; di++ {
			for dj := 0; dj < g.D.R; dj++ {
				ti, tj := minI+di, minJ+dj
				if ti >= g.D.NX || tj >= g.D.NY || slack[ti][tj] == 0 {
					continue
				}
				ok := true
				if opts.MaxDensity > 0 {
					windowsOver(ti, tj, func(wi, wj int) {
						after := winBase[wi][wj] + (winCnt[wi][wj]+1)*g.FeatureArea
						if float64(after)/float64(winArea[wi][wj]) > opts.MaxDensity {
							ok = false
						}
					})
				}
				if ok {
					cands = append(cands, cand{ti, tj, slack[ti][tj]})
					totalW += slack[ti][tj]
				}
			}
		}
		if len(cands) == 0 {
			dead[[2]int{minI, minJ}] = true
			continue
		}
		pick := rng.Intn(totalW)
		var chosen cand
		for _, c := range cands {
			if pick < c.w {
				chosen = c
				break
			}
			pick -= c.w
		}
		budget[chosen.ti][chosen.tj]++
		slack[chosen.ti][chosen.tj]--
		windowsOver(chosen.ti, chosen.tj, func(wi, wj int) {
			winCnt[wi][wj]++
		})
	}

	achieved := math.Inf(1)
	for i := 0; i < wx; i++ {
		for j := 0; j < wy; j++ {
			if d := density(i, j); d < achieved {
				achieved = d
			}
		}
	}
	return budget, achieved, nil
}

// randomOracleGrid draws a grid for the oracle tests: NX != NY in general,
// R from 1 to 4, a die that is not a multiple of the tile (so the last
// windows are short), empty and zero-slack tiles, and feature sizes from a
// few hundred insertions per grid down to a handful.
func randomOracleGrid(t *testing.T, rng *rand.Rand) *Grid {
	r := 1 + rng.Intn(4)
	nx, ny := r+rng.Intn(7), r+rng.Intn(7)
	tile := int64(1000 + rng.Intn(3000))
	die := geom.Rect{
		X2: int64(nx-1)*tile + 1 + rng.Int63n(tile),
		Y2: int64(ny-1)*tile + 1 + rng.Int63n(tile),
	}
	d, err := layout.NewDissection(die, tile*int64(r), r)
	if err != nil {
		t.Fatal(err)
	}
	feature := int64(100 + rng.Intn(500))
	g := &Grid{D: d, FeatureArea: feature * feature}
	g.TileArea = make([][]int64, nx)
	g.TileSlack = make([][]int, nx)
	emptyP, noSlackP := rng.Float64()*0.4, rng.Float64()*0.6
	for i := 0; i < nx; i++ {
		g.TileArea[i] = make([]int64, ny)
		g.TileSlack[i] = make([]int, ny)
		for j := 0; j < ny; j++ {
			if rng.Float64() >= emptyP {
				g.TileArea[i][j] = rng.Int63n(tile * tile * 3 / 5)
			}
			if rng.Float64() >= noSlackP {
				g.TileSlack[i][j] = rng.Intn(40)
			}
		}
	}
	return g
}

func sameBudget(a, b Budget) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestMonteCarloMatchesReference: on randomized grids the heap-driven
// budgeter returns the reference full scan's budget and achieved density
// bit for bit, and MaxMinBudget returns what MaxMinDensity followed by
// MonteCarlo at the probed density does.
func TestMonteCarloMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const grids = 600
	var insertions, unreached, capped, emptyProbes int
	for n := 0; n < grids; n++ {
		g := randomOracleGrid(t, rng)
		minBefore, maxBefore := g.Stats(nil)
		var maxD float64
		switch rng.Intn(4) {
		case 0: // no bound
			maxD = -rng.Float64() * float64(rng.Intn(2))
		case 1: // tight: close to (or below) the densest window
			maxD = maxBefore + (rng.Float64()-0.3)*0.05
		default:
			maxD = 0.2 + rng.Float64()*0.7
		}
		var target float64
		switch rng.Intn(3) {
		case 0: // reachable: a little above the emptiest window
			target = minBefore + rng.Float64()*0.05
		case 1: // unreachable
			target = 1
		default:
			target = rng.Float64()
		}
		opts := MonteCarloOptions{TargetMin: target, MaxDensity: maxD, Seed: rng.Int63()}
		want, wantA, wantErr := referenceMonteCarlo(g, opts)
		got, gotA, err := MonteCarlo(g, opts)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("grid %d %+v: err %v, reference err %v", n, opts, err, wantErr)
		}
		if math.Float64bits(gotA) != math.Float64bits(wantA) || !sameBudget(got, want) {
			t.Fatalf("grid %d %+v: achieved %v total %d, reference %v total %d",
				n, opts, gotA, got.Total(), wantA, want.Total())
		}
		insertions += got.Total()
		if wantA < target {
			unreached++ // the run stopped on windows going dead
		}
		if maxD > 0 {
			free, _, _ := MonteCarlo(g, MonteCarloOptions{TargetMin: target, Seed: opts.Seed})
			if !sameBudget(free, want) {
				capped++ // the MaxDensity bound changed the choices
			}
		}

		probe, err := MaxMinDensity(g, maxD, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		twoCall, _, twoErr := MonteCarlo(g, MonteCarloOptions{TargetMin: probe, MaxDensity: maxD, Seed: opts.Seed})
		one, oneA, oneErr := MaxMinBudget(g, maxD, opts.Seed)
		if (oneErr != nil) != (twoErr != nil) {
			t.Fatalf("grid %d: MaxMinBudget err %v, two-call err %v", n, oneErr, twoErr)
		}
		if oneErr != nil {
			emptyProbes++
		} else if math.Float64bits(oneA) != math.Float64bits(probe) || !sameBudget(one, twoCall) {
			t.Fatalf("grid %d: MaxMinBudget (%v, total %d), two-call (%v, total %d)",
				n, oneA, one.Total(), probe, twoCall.Total())
		}
	}
	// The draw must reach both stopping rules, the bound, and the probe's
	// zero-density error, or the test proves little.
	t.Logf("%d grids: %d insertions, %d unreached targets, %d bound by MaxDensity, %d zero probes",
		grids, insertions, unreached, capped, emptyProbes)
	if insertions < 50*grids || unreached < grids/10 || capped < grids/10 || emptyProbes == 0 {
		t.Error("weak coverage")
	}
}

// BenchmarkMonteCarlo is the session budgeting step — probe plus budget —
// on a grid of the size the T3-family benchmark layouts give: a 204.8 um die,
// 16x16 tiles of 12.8 um, r = 4, 400 nm features on a 600 nm pitch.
func BenchmarkMonteCarlo(b *testing.B) {
	const nx, tile, pitch = 16, int64(12800), int64(600)
	die := geom.Rect{X2: nx * tile, Y2: nx * tile}
	d, err := layout.NewDissection(die, tile*4, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	g := &Grid{D: d, FeatureArea: 400 * 400}
	g.TileArea = make([][]int64, nx)
	g.TileSlack = make([][]int, nx)
	sites := int((tile / pitch) * (tile / pitch))
	for i := 0; i < nx; i++ {
		g.TileArea[i] = make([]int64, nx)
		g.TileSlack[i] = make([]int, nx)
		for j := 0; j < nx; j++ {
			used := rng.Float64() * 0.4
			g.TileArea[i][j] = int64(used * float64(tile*tile))
			g.TileSlack[i][j] = int(float64(sites) * (1 - 1.5*used))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxMinBudget(g, 0.7, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// checkBudget verifies a budget respects per-tile slack.
func checkBudget(g *Grid, b Budget) error {
	for i := range b {
		for j := range b[i] {
			if b[i][j] < 0 {
				return fmt.Errorf("tile (%d,%d) negative budget %d", i, j, b[i][j])
			}
			if b[i][j] > g.TileSlack[i][j] {
				return fmt.Errorf("tile (%d,%d) budget %d exceeds slack %d", i, j, b[i][j], g.TileSlack[i][j])
			}
		}
	}
	return nil
}

// freeSites counts the occupancy's free sites.
func freeSites(occ *layout.Occupancy) int {
	n := 0
	for c := 0; c < occ.Grid.Cols; c++ {
		n += occ.FreeInColumn(c, 0, occ.Grid.Rows)
	}
	return n
}
