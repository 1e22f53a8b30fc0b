package cap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var proc = Default130

// TestValidate: the default process, the only one the engine runs, is
// physical.
func TestValidate(t *testing.T) {
	if proc.EpsR <= 0 || proc.MetalHeight <= 0 || proc.SheetRes <= 0 || proc.AreaCapPerSqNm < 0 {
		t.Fatalf("default process not physical: %+v", proc)
	}
}

func TestPlateCapScalesInverselyWithSpacing(t *testing.T) {
	c1 := proc.PlateCapPerLength(200)
	c2 := proc.PlateCapPerLength(400)
	if math.Abs(c1/c2-2) > 1e-12 {
		t.Errorf("C(200)/C(400) = %g, want 2", c1/c2)
	}
}

func TestCoupleExactReducesToPlate(t *testing.T) {
	// m = 0 must reproduce C_B exactly.
	if got, want := proc.CoupleExactPerLength(0, 100, 500), proc.PlateCapPerLength(500); got != want {
		t.Errorf("f(0,d) = %g, want C_B = %g", got, want)
	}
}

func TestCoupleExactMonotoneInM(t *testing.T) {
	prev := proc.CoupleExactPerLength(0, 100, 1000)
	for m := 1; m <= 9; m++ {
		cur := proc.CoupleExactPerLength(m, 100, 1000)
		if cur <= prev {
			t.Fatalf("f(%d) = %g not > f(%d) = %g", m, cur, m-1, prev)
		}
		prev = cur
	}
}

func TestLinearUnderestimatesExact(t *testing.T) {
	// 1/(d - mw) = (1/d)(1/(1-mw/d)) >= (1/d)(1 + mw/d), so the linear model
	// is a lower bound that tightens as m*w/d -> 0.
	for m := 1; m <= 8; m++ {
		exact := proc.DeltaExact(m, 100, 1000)
		lin := proc.DeltaLinear(m, 100, 1000)
		if lin > exact+1e-30 {
			t.Errorf("m=%d: linear %g > exact %g", m, lin, exact)
		}
	}
}

func TestLinearErrorGrowsWithM(t *testing.T) {
	prev := -1.0
	for m := 1; m <= 8; m++ {
		e := proc.RelLinearError(m, 100, 1000)
		if e <= prev {
			t.Fatalf("error at m=%d (%g) not > error at m-1 (%g)", m, e, prev)
		}
		prev = e
	}
	// At m*w close to d the error must be large (> 50%).
	if e := proc.RelLinearError(8, 100, 900); e < 0.5 {
		t.Errorf("near-full column error = %g, want > 0.5", e)
	}
}

func TestLinearAccurateForSmallFill(t *testing.T) {
	// w << d: one 10 nm feature across a 10 um gap should be within 1%.
	if e := proc.RelLinearError(1, 10, 10000); e > 0.01 {
		t.Errorf("small-fill error = %g, want <= 0.01", e)
	}
}

func TestSeriesMatchesExactForUniformGaps(t *testing.T) {
	// m features of width w between lines at spacing d, placed so the
	// dielectric splits into m+1 gaps summing to d - m*w. Series combination
	// of those plate caps must equal f(m, d) regardless of how the remaining
	// gap is distributed (only the total dielectric thickness matters).
	w, d := int64(100), int64(1000)
	m := 3
	rem := d - int64(m)*w // 700
	gaps := []int64{200, 250, 150, 100}
	total := int64(0)
	for _, g := range gaps {
		total += g
	}
	if total != rem {
		t.Fatalf("test bug: gaps sum %d != %d", total, rem)
	}
	series := proc.SeriesPerLength(gaps)
	exact := proc.CoupleExactPerLength(m, w, d)
	if math.Abs(series-exact)/exact > 1e-12 {
		t.Errorf("series %g != exact %g", series, exact)
	}
}

func TestDeltaExactZeroForNoFill(t *testing.T) {
	if proc.DeltaExact(0, 100, 1000) != 0 || proc.DeltaLinear(0, 100, 1000) != 0 {
		t.Error("zero fill must add zero capacitance")
	}
}

func TestPanicsOnBadGeometry(t *testing.T) {
	cases := []func(){
		func() { proc.PlateCapPerLength(0) },
		func() { proc.PlateCapPerLength(-5) },
		func() { proc.CoupleExactPerLength(10, 100, 1000) }, // m*w == d
		func() { proc.CoupleExactPerLength(-1, 100, 1000) },
		func() { proc.SeriesPerLength(nil) },
		func() { proc.SeriesPerLength([]int64{100, 0}) },
		func() { proc.WireResistance(100, 0) },
		func() { proc.WireResistance(-1, 10) },
		func() { proc.ResPerLength(0) },
		func() { proc.BuildTable(0, 100, 3) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestWireResistance(t *testing.T) {
	// 1000 nm long, 100 nm wide = 10 squares.
	got := proc.WireResistance(1000, 100)
	want := proc.SheetRes * 10
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("R = %g, want %g", got, want)
	}
	if r := proc.ResPerLength(100); math.Abs(r*1000-want) > 1e-12 {
		t.Errorf("ResPerLength inconsistent with WireResistance")
	}
}

func TestWireAreaCap(t *testing.T) {
	got := proc.WireAreaCap(1000, 100)
	want := proc.AreaCapPerSqNm * 1e5
	if math.Abs(got-want) > 1e-30 {
		t.Errorf("areaCap = %g, want %g", got, want)
	}
}

func TestBuildTable(t *testing.T) {
	tbl := proc.BuildTable(100, 1000, 50)
	// Clamped: m*w < d means m <= 9.
	if tbl.MaxM() != 9 {
		t.Fatalf("MaxM = %d, want 9", tbl.MaxM())
	}
	if tbl.Delta(0) != 0 {
		t.Error("Delta(0) must be 0")
	}
	for m := 1; m <= tbl.MaxM(); m++ {
		if got, want := tbl.Delta(m), proc.DeltaExact(m, 100, 1000); got != want {
			t.Errorf("Delta(%d) = %g, want %g", m, got, want)
		}
	}
	// Past-the-end clamps to the last entry.
	if tbl.Delta(100) != tbl.Delta(9) {
		t.Error("Delta past end should clamp")
	}
	if tbl.Delta(-3) != 0 {
		t.Error("Delta of negative m should be 0")
	}
}

func TestBuildTableTightSpacing(t *testing.T) {
	// d < w: no fill fits at all.
	tbl := proc.BuildTable(100, 50, 10)
	if tbl.MaxM() != 0 {
		t.Fatalf("MaxM = %d, want 0", tbl.MaxM())
	}
}

func TestQuickDeltaExactConvex(t *testing.T) {
	// DeltaExact is convex in m: second differences are non-negative.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := int64(50 + rng.Intn(100))
		maxM := 2 + rng.Intn(8)
		d := w*int64(maxM+2) + int64(rng.Intn(1000))
		for m := 1; m < maxM; m++ {
			d2 := proc.DeltaExact(m+1, w, d) - 2*proc.DeltaExact(m, w, d) + proc.DeltaExact(m-1, w, d)
			if d2 < -1e-30 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSeriesGapDistributionInvariant(t *testing.T) {
	// For a fixed total dielectric, the series capacitance is independent of
	// how the gap is split.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int64(300 + rng.Intn(2000))
		// Split total into 2..5 positive gaps.
		n := 2 + rng.Intn(4)
		gaps := make([]int64, n)
		rem := total
		for i := 0; i < n-1; i++ {
			maxTake := rem - int64(n-1-i) // leave >= 1 for the rest
			take := int64(1)
			if maxTake > 1 {
				take = 1 + rng.Int63n(maxTake)
			}
			gaps[i] = take
			rem -= take
		}
		gaps[n-1] = rem
		got := proc.SeriesPerLength(gaps)
		want := proc.PlateCapPerLength(total)
		return math.Abs(got-want)/want < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeltaExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = proc.DeltaExact(3, 100, 1000)
	}
}

func BenchmarkBuildTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = proc.BuildTable(100, 2000, 19)
	}
}

func TestGroundedExceedsFloating(t *testing.T) {
	// Grounded fill always loads a line harder than the same floating fill:
	// the per-side gap is half the total remaining dielectric and no series
	// division applies.
	for m := 1; m <= 5; m++ {
		g := proc.DeltaGrounded(m, 300, 3000)
		f := proc.DeltaExact(m, 300, 3000)
		if g <= f {
			t.Errorf("m=%d: grounded %g <= floating %g", m, g, f)
		}
	}
}

func TestGroundedZeroFill(t *testing.T) {
	if proc.DeltaGrounded(0, 300, 3000) != 0 {
		t.Error("zero grounded fill must add zero capacitance")
	}
}

func TestGroundedMonotoneConvex(t *testing.T) {
	// Monotone increasing in m everywhere. Convex only from m >= 1: the
	// step from 0 to 1 feature is a configuration change (no shield -> a
	// grounded shield), so the first increment is disproportionately large.
	prev := 0.0
	for m := 1; m <= 6; m++ {
		v := proc.DeltaGrounded(m, 300, 3000)
		if v <= prev {
			t.Fatalf("m=%d: not increasing (%g <= %g)", m, v, prev)
		}
		prev = v
	}
	prevDelta := -1.0
	for m := 2; m <= 6; m++ {
		delta := proc.DeltaGrounded(m, 300, 3000) - proc.DeltaGrounded(m-1, 300, 3000)
		if prevDelta >= 0 && delta < prevDelta {
			t.Fatalf("m=%d: not convex past the first feature", m)
		}
		prevDelta = delta
	}
}

func TestGroundedPanics(t *testing.T) {
	for i, f := range []func(){
		func() { proc.DeltaGrounded(10, 300, 3000) }, // m*w == d
		func() { proc.DeltaGrounded(-1, 300, 3000) },
		func() { proc.BuildGroundedTable(0, 100, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestBuildGroundedTable(t *testing.T) {
	tbl := proc.BuildGroundedTable(300, 3000, 50)
	if tbl.MaxM() != 9 {
		t.Fatalf("MaxM = %d, want 9", tbl.MaxM())
	}
	for m := 1; m <= tbl.MaxM(); m++ {
		if got, want := tbl.Delta(m), proc.DeltaGrounded(m, 300, 3000); got != want {
			t.Errorf("Delta(%d) = %g, want %g", m, got, want)
		}
	}
}
