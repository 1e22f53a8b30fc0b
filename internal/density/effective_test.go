package density

import (
	"math"
	"math/rand"
	"testing"
)

func allKernels() []KernelKind {
	return []KernelKind{FlatKernel, EllipticKernel, GaussianKernel}
}

func TestKernelNormalized(t *testing.T) {
	for _, kind := range allKernels() {
		for _, r := range []int{1, 2, 3, 4, 5, 8} {
			k := NewKernel(kind, r)
			sum := 0.0
			for di := 0; di < r; di++ {
				for dj := 0; dj < r; dj++ {
					if k.W[di][dj] < 0 {
						t.Errorf("%v r=%d: negative weight at (%d,%d)", kind, r, di, dj)
					}
					sum += k.W[di][dj]
				}
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%v r=%d: weights sum to %g, want 1", kind, r, sum)
			}
		}
	}
}

// TestEffectiveFFTMatchesBrute is the headline property test: on random
// non-power-of-two grids with random areas and random fill, the FFT path must
// match the direct reference to 1e-9 relative, for every kernel.
func TestEffectiveFFTMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dims := [][2]int{{13, 21}, {17, 9}, {24, 24}, {31, 30}, {7, 40}}
	for trial, dim := range dims {
		nx, ny := dim[0], dim[1]
		r := 2 + trial%3 // 2, 3, 4
		if nx < r || ny < r {
			t.Fatalf("bad test dims %dx%d r=%d", nx, ny, r)
		}
		tile := int64(2000)
		g := testGrid(t, nx, ny, r, tile,
			func(i, j int) int64 { return rng.Int63n(tile * tile) },
			func(i, j int) int { return rng.Intn(50) })
		fill := g.NewBudget()
		for i := range fill {
			for j := range fill[i] {
				fill[i][j] = rng.Intn(g.TileSlack[i][j] + 1)
			}
		}
		for _, kind := range allKernels() {
			k := NewKernel(kind, r)
			got, err := EffectiveDensities(g, k, fill)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EffectiveDensitiesBrute(g, k, fill)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for j := range want[i] {
					diff := math.Abs(got[i][j] - want[i][j])
					if diff > 1e-9*math.Max(1, math.Abs(want[i][j])) {
						t.Fatalf("%dx%d r=%d %v: window (%d,%d): fft %.17g brute %.17g",
							nx, ny, r, kind, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

func TestFlatKernelMatchesWindowDensity(t *testing.T) {
	// On a die that divides evenly into tiles, the flat kernel is exactly the
	// paper's window density: the average of the r² tile densities.
	rng := rand.New(rand.NewSource(7))
	tile := int64(2000)
	g := testGrid(t, 12, 10, 4, tile,
		func(i, j int) int64 { return rng.Int63n(tile * tile) },
		func(i, j int) int { return rng.Intn(20) })
	fill := g.NewBudget()
	for i := range fill {
		for j := range fill[i] {
			fill[i][j] = rng.Intn(g.TileSlack[i][j] + 1)
		}
	}
	k := NewKernel(FlatKernel, 4)
	eff, err := EffectiveDensitiesBrute(g, k, fill)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eff {
		for j := range eff[i] {
			want := g.WindowDensity(i, j, fill)
			if math.Abs(eff[i][j]-want) > 1e-12 {
				t.Fatalf("window (%d,%d): flat effective %.17g, window density %.17g", i, j, eff[i][j], want)
			}
		}
	}
}

func TestFFTBudgetLiftsEffectiveMin(t *testing.T) {
	tile := int64(4000)
	for _, kind := range allKernels() {
		g := testGrid(t, 16, 16, 4, tile,
			func(i, j int) int64 { return tile * tile / int64(4+(i+2*j)%6) },
			func(i, j int) int { return 500 })
		k := NewKernel(kind, 4)
		const target, maxD = 0.3, 0.5
		budget, achieved, err := FFTBudget(g, k, FFTBudgetOptions{TargetMin: target, MaxDensity: maxD})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkBudget(g, budget); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if achieved < target-1e-9 {
			t.Errorf("%v: achieved %g < target %g with slack to spare", kind, achieved, target)
		}
		// The reported achieved figure must agree with a fresh evaluation.
		eff, err := EffectiveDensitiesBrute(g, k, budget)
		if err != nil {
			t.Fatal(err)
		}
		minEff := math.Inf(1)
		for i := range eff {
			for j := range eff[i] {
				if eff[i][j] < minEff {
					minEff = eff[i][j]
				}
			}
		}
		if math.Abs(minEff-achieved) > 1e-9*math.Max(1, achieved) {
			t.Errorf("%v: achieved %g, recomputed %g", kind, achieved, minEff)
		}
		// Per-tile bound: no tile (and hence no window) above MaxDensity.
		for i := 0; i < g.D.NX; i++ {
			for j := 0; j < g.D.NY; j++ {
				if d := g.tileDensity(i, j, budget); d > maxD+1e-12 {
					t.Errorf("%v: tile (%d,%d) density %g exceeds %g", kind, i, j, d, maxD)
				}
			}
		}
	}
}
