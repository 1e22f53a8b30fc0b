package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pilfill/internal/cap"
	"pilfill/internal/scanline"
)

// synthInstance builds a random MDFC instance directly: nCols columns with
// random capacities; a fraction are "free" (unattributed), the rest get
// exact convex cost curves from the capacitance model with random spacings
// and upstream resistances.
func synthInstance(rng *rand.Rand, nCols int) *Instance {
	proc := cap.Default130
	const w = int64(300)
	in := &Instance{}
	total := 0
	for k := 0; k < nCols; k++ {
		capacity := 1 + rng.Intn(8)
		cv := ColumnVar{
			Col:    &scanline.Column{Col: int32(k), Capacity: int32(capacity)},
			MaxM:   capacity,
			NetLow: -1, NetHigh: -1,
		}
		if rng.Float64() < 0.8 { // attributed column
			d := w*int64(capacity+1) + 200 + int64(rng.Intn(4000))
			tbl := proc.BuildTable(w, d, capacity)
			if tbl.MaxM() < cv.MaxM {
				cv.MaxM = tbl.MaxM()
			}
			rU := rng.Float64() * 500
			wl := 1 + rng.Intn(5)
			rW := rU * float64(wl)
			n := cv.MaxM + 1
			cv.DeltaC = make([]float64, n)
			cv.CostExact = make([]float64, n)
			for m := 1; m < n; m++ {
				dc := tbl.Delta(m)
				cv.DeltaC[m] = dc
				cv.CostExact[m] = rU * dc
			}
			cv.RHatU, cv.RHatW = rU, rW
			cv.LinearSlope = rU * proc.DeltaLinear(1, w, d)
			cv.NetLow = rng.Intn(3)
			cv.RLow = rU
			cv.REffLow = rU // quiet aggressor: sf = 1
		}
		if cv.MaxM > 0 {
			in.Columns = append(in.Columns, cv)
			total += cv.MaxM
		}
	}
	if total == 0 {
		in.F = 0
	} else {
		in.F = rng.Intn(total + 1)
	}
	return in
}

func placedTotal(a Assignment) int {
	t := 0
	for _, m := range a {
		t += m
	}
	return t
}

func TestSolversSatisfyFillConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		in := synthInstance(rng, 2+rng.Intn(10))
		solvers := map[string]func() (Assignment, error){
			"normal":   func() (Assignment, error) { return normalOf(in, rng), nil },
			"greedy":   func() (Assignment, error) { return greedyOf(in), nil },
			"marginal": func() (Assignment, error) { return marginalOf(in), nil },
			"dp":       func() (Assignment, error) { return dpOf(in) },
			"ilp1":     func() (Assignment, error) { return ilpIOf(in) },
			"ilp2": func() (Assignment, error) {
				a, _, err := ilpIIOf(in, nil, nil)
				return a, err
			},
		}
		for name, solve := range solvers {
			a, err := solve()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := in.Valid(a); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
		}
	}
}

func TestQuickILPIIMatchesDPOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := synthInstance(rng, 2+rng.Intn(7))
		dpA, err := dpOf(in)
		if err != nil {
			return false
		}
		ilpA, _, err := ilpIIOf(in, nil, nil)
		if err != nil {
			return false
		}
		dpCost := costOf(in, dpA)
		ilpCost := costOf(in, ilpA)
		return math.Abs(dpCost-ilpCost) <= 1e-9*math.Max(dpCost, 1e-30)+1e-25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMarginalGreedyMatchesDPOptimum(t *testing.T) {
	// Exact cost curves are convex in m, so the per-feature marginal greedy
	// must achieve the DP optimum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := synthInstance(rng, 2+rng.Intn(8))
		dpA, err := dpOf(in)
		if err != nil {
			return false
		}
		mgA := marginalOf(in)
		if in.Valid(mgA) != nil {
			return false
		}
		dpCost := costOf(in, dpA)
		mgCost := costOf(in, mgA)
		return mgCost <= dpCost+1e-9*math.Max(dpCost, 1e-30)+1e-25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOptimumNeverWorseThanHeuristics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := synthInstance(rng, 2+rng.Intn(8))
		dpA, err := dpOf(in)
		if err != nil {
			return false
		}
		opt := costOf(in, dpA)
		gA := greedyOf(in)
		nA := normalOf(in, rng)
		tol := 1e-9*math.Max(opt, 1e-30) + 1e-25
		return costOf(in, gA) >= opt-tol && costOf(in, nA) >= opt-tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestILPIOptimizesLinearSurrogate(t *testing.T) {
	// ILP-I must be optimal for the *linear* objective even though it can
	// lose on the exact one.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		in := synthInstance(rng, 2+rng.Intn(6))
		a, err := ilpIOf(in)
		if err != nil {
			t.Fatal(err)
		}
		linCost := func(x Assignment) float64 {
			c := 0.0
			for k, m := range x {
				c += in.Columns[k].LinearSlope * float64(m)
			}
			return c
		}
		got := linCost(a)
		// Linear objective with Σm = F: optimum pours into the smallest
		// slopes first; compute it directly.
		type sc struct {
			slope float64
			cap   int
		}
		var scs []sc
		for k := range in.Columns {
			scs = append(scs, sc{in.Columns[k].LinearSlope, in.Columns[k].MaxM})
		}
		for i := range scs {
			for j := i + 1; j < len(scs); j++ {
				if scs[j].slope < scs[i].slope {
					scs[i], scs[j] = scs[j], scs[i]
				}
			}
		}
		want, rem := 0.0, in.F
		for _, s := range scs {
			take := s.cap
			if take > rem {
				take = rem
			}
			want += float64(take) * s.slope
			rem -= take
		}
		if math.Abs(got-want) > 1e-9*math.Max(want, 1e-30)+1e-25 {
			t.Fatalf("trial %d: ILP-I linear cost %g, optimum %g", trial, got, want)
		}
	}
}

func TestGreedyPrefersCheapColumns(t *testing.T) {
	// Two columns: one free, one expensive; F fits in the free one.
	proc := cap.Default130
	tbl := proc.BuildTable(300, 2000, 4)
	expensive := ColumnVar{
		Col: &scanline.Column{Col: 1, Capacity: 4}, MaxM: 4,
		NetLow: 0, RLow: 100, NetHigh: -1,
	}
	n := 5
	expensive.DeltaC = make([]float64, n)
	expensive.CostExact = make([]float64, n)
	for m := 1; m < n; m++ {
		expensive.DeltaC[m] = tbl.Delta(m)
		expensive.CostExact[m] = 100 * tbl.Delta(m)
	}
	expensive.RHatU, expensive.RHatW = 100, 100
	free := ColumnVar{Col: &scanline.Column{Col: 0, Capacity: 5}, MaxM: 5, NetLow: -1, NetHigh: -1}
	in := &Instance{F: 5, Columns: []ColumnVar{expensive, free}}
	a := greedyOf(in)
	if a[1] != 5 || a[0] != 0 {
		t.Fatalf("greedy chose %v, want all fill in the free column", a)
	}
	u, _, err := in.Evaluate(a)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if u != 0 {
		t.Errorf("free placement should cost 0, got %g", u)
	}
}

func TestDPTooLarge(t *testing.T) {
	in := &Instance{F: DPMaxStates, Columns: make([]ColumnVar, 2)}
	in.Columns[0] = ColumnVar{Col: &scanline.Column{}, MaxM: DPMaxStates, NetLow: -1, NetHigh: -1}
	in.Columns[1] = ColumnVar{Col: &scanline.Column{}, MaxM: DPMaxStates, NetLow: -1, NetHigh: -1}
	if _, err := dpOf(in); err == nil {
		t.Error("oversized DP accepted")
	}
}

func TestEmptyInstance(t *testing.T) {
	in := &Instance{F: 0}
	if a := greedyOf(in); len(a) != 0 {
		t.Error("non-empty assignment for empty instance")
	}
	if a, _, err := ilpIIOf(in, nil, nil); err != nil || len(a) != 0 {
		t.Errorf("ILP-II on empty instance: %v %v", a, err)
	}
	if a, err := ilpIOf(in); err != nil || len(a) != 0 {
		t.Errorf("ILP-I on empty instance: %v %v", a, err)
	}
}

func TestNormalDeterministicPerSeed(t *testing.T) {
	in := synthInstance(rand.New(rand.NewSource(3)), 8)
	a1 := normalOf(in, rand.New(rand.NewSource(9)))
	a2 := normalOf(in, rand.New(rand.NewSource(9)))
	for k := range a1 {
		if a1[k] != a2[k] {
			t.Fatal("same seed, different normal placement")
		}
	}
}

func TestILPIIWithNetCap(t *testing.T) {
	// A tight per-net cap must route fill away from that net's columns.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		in := synthInstance(rng, 6)
		if in.F == 0 {
			continue
		}
		// Solve unconstrained, find per-net delay, then cap one net at half.
		a0, _, err := ilpIIOf(in, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		perNet := map[int]float64{}
		for k, m := range a0 {
			cv := &in.Columns[k]
			if m == 0 || cv.DeltaC == nil {
				continue
			}
			if cv.NetLow >= 0 {
				perNet[cv.NetLow] += cv.DeltaC[m] * cv.RLow
			}
			if cv.NetHigh >= 0 {
				perNet[cv.NetHigh] += cv.DeltaC[m] * cv.RHigh
			}
		}
		worstNet, worst := -1, 0.0
		for n, v := range perNet {
			if v > worst {
				worst, worstNet = v, n
			}
		}
		if worstNet < 0 || worst == 0 {
			continue
		}
		capVal := worst / 2
		a1, _, err := ilpIIOf(in, nil, &NetCap{MaxAddedDelay: capVal})
		if err != nil {
			// The cap can make the instance infeasible (not enough
			// alternative capacity); that is a legitimate outcome.
			continue
		}
		got := 0.0
		for k, m := range a1 {
			cv := &in.Columns[k]
			if m == 0 || cv.DeltaC == nil {
				continue
			}
			if cv.NetLow == worstNet {
				got += cv.DeltaC[m] * cv.RLow
			}
			if cv.NetHigh == worstNet {
				got += cv.DeltaC[m] * cv.RHigh
			}
		}
		if got > capVal*(1+1e-6) {
			t.Fatalf("trial %d: net %d delay %g exceeds cap %g", trial, worstNet, got, capVal)
		}
	}
}

func BenchmarkSolveDP(b *testing.B) {
	in := synthInstance(rand.New(rand.NewSource(2)), 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dpOf(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveILPII(b *testing.B) {
	in := synthInstance(rand.New(rand.NewSource(2)), 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ilpIIOf(in, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveGreedy(b *testing.B) {
	in := synthInstance(rand.New(rand.NewSource(2)), 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = greedyOf(in)
	}
}
