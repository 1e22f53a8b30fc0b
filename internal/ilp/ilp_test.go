package ilp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pilfill/internal/lp"
)

func solveOK(t *testing.T, p *Problem, opts *Options) *Solution {
	t.Helper()
	sol, err := Solve(p, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// Best: a + c (weight 5, value 17); b+c = 20/weight 6 -> value 20. Check:
	// b=1,c=1: weight 6 <= 6, value 20. That's optimal.
	p := &Problem{
		NumVars:   3,
		Objective: []float64{-10, -13, -7},
		Constraints: []lp.Constraint{
			{Coeffs: []float64{3, 4, 2}, Op: lp.LE, RHS: 6},
		},
		VarTypes: []VarType{Binary, Binary, Binary},
	}
	sol := solveOK(t, p, nil)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -20, 1e-6) {
		t.Errorf("objective = %g, want -20 (x=%v)", sol.Objective, sol.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// min -x - y s.t. 2x + 2y <= 7, integer => x + y <= 3.5 so best sum 3.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Constraints: []lp.Constraint{
			{Coeffs: []float64{2, 2}, Op: lp.LE, RHS: 7},
		},
		VarTypes: []VarType{Integer, Integer},
	}
	sol := solveOK(t, p, nil)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -3, 1e-6) {
		t.Errorf("objective = %g, want -3", sol.Objective)
	}
	for j, x := range sol.X {
		if math.Abs(x-math.Round(x)) > 1e-9 {
			t.Errorf("x[%d] = %g not integral", j, x)
		}
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x == 3 has no integer solution but an LP one.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []lp.Constraint{
			{Coeffs: []float64{2}, Op: lp.EQ, RHS: 3},
		},
		VarTypes: []VarType{Integer},
	}
	sol := solveOK(t, p, nil)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []lp.Constraint{
			{Coeffs: []float64{1}, Op: lp.GE, RHS: 2},
			{Coeffs: []float64{1}, Op: lp.LE, RHS: 1},
		},
		VarTypes: []VarType{Integer},
	}
	sol := solveOK(t, p, nil)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{-1},
		VarTypes:  []VarType{Integer},
	}
	sol := solveOK(t, p, nil)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestUpperBounds(t *testing.T) {
	// min -x with x <= 5 (via Upper), integer.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{-1},
		VarTypes:  []VarType{Integer},
		Upper:     []float64{5},
	}
	sol := solveOK(t, p, nil)
	if sol.Status != Optimal || !approx(sol.Objective, -5, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal -5", sol.Status, sol.Objective)
	}
}

func TestBinaryImplicitBound(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{-1},
		VarTypes:  []VarType{Binary},
	}
	sol := solveOK(t, p, nil)
	if sol.Status != Optimal || !approx(sol.Objective, -1, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal -1", sol.Status, sol.Objective)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -y - 0.5 z, y integer <= 2.5 constraint, z continuous <= 0.5:
	//   y <= 2.5 -> y = 2;  z = 0.5  => obj = -2.25.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, -0.5},
		Constraints: []lp.Constraint{
			{Coeffs: []float64{1, 0}, Op: lp.LE, RHS: 2.5},
			{Coeffs: []float64{0, 1}, Op: lp.LE, RHS: 0.5},
		},
		VarTypes: []VarType{Integer, Continuous},
	}
	sol := solveOK(t, p, nil)
	if sol.Status != Optimal || !approx(sol.Objective, -2.25, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal -2.25", sol.Status, sol.Objective)
	}
}

func TestNodeLimitReturnsFeasibleOrLimit(t *testing.T) {
	// A 12-item knapsack; 3-node budget cannot prove optimality.
	rng := rand.New(rand.NewSource(3))
	n := 12
	p := &Problem{NumVars: n, Objective: make([]float64, n), VarTypes: make([]VarType, n)}
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		p.Objective[j] = -(1 + rng.Float64()*9)
		w[j] = 1 + rng.Float64()*9
		p.VarTypes[j] = Binary
	}
	p.Constraints = []lp.Constraint{{Coeffs: w, Op: lp.LE, RHS: 12.3}}
	sol := solveOK(t, p, &Options{MaxNodes: 3})
	if sol.Status != Feasible && sol.Status != Limit {
		t.Fatalf("status = %v, want feasible or limit", sol.Status)
	}
	if sol.Nodes > 3 {
		t.Errorf("nodes = %d, exceeds limit", sol.Nodes)
	}
}

// TestCancelHonored: a Cancel that turns true after 50 ms stops a search
// that would otherwise run to a hundred million nodes. This knapsack solves
// well inside 50 ms, so a Cancel that turns true on its fourth poll (one
// poll per node) must also stop the search after exactly three nodes,
// keeping the incumbent found so far.
func TestCancelHonored(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 22
	p := &Problem{NumVars: n, Objective: make([]float64, n), VarTypes: make([]VarType, n)}
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		p.Objective[j] = -(1 + rng.Float64()*9)
		w[j] = 1 + rng.Float64()*9
		p.VarTypes[j] = Binary
	}
	p.Constraints = []lp.Constraint{{Coeffs: w, Op: lp.LE, RHS: 40}}
	start := time.Now()
	cancel := func() bool { return time.Since(start) > 50*time.Millisecond }
	sol := solveOK(t, p, &Options{Cancel: cancel, MaxNodes: 100_000_000})
	// Generous tolerance: the check happens between node expansions.
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancel not honored")
	}
	if sol.Nodes <= 3 {
		t.Fatalf("the search took only %d nodes; a cancel after three cannot be told apart", sol.Nodes)
	}
	polls := 0
	sol = solveOK(t, p, &Options{Cancel: func() bool { polls++; return polls > 3 }, MaxNodes: 100_000_000})
	if sol.Nodes != 3 || (sol.Status != Feasible && sol.Status != Limit) {
		t.Fatalf("cancel on the fourth poll: %d nodes, status %v; want 3 nodes, feasible or limit", sol.Nodes, sol.Status)
	}
}

func TestBadProblems(t *testing.T) {
	if _, err := Solve(&Problem{NumVars: 0}, nil); err == nil {
		t.Error("NumVars=0 should error")
	}
	if _, err := Solve(&Problem{NumVars: 1, Objective: []float64{1, 2}}, nil); err == nil {
		t.Error("over-long objective should error")
	}
}

// bruteForceKnapsack enumerates all binary assignments.
func bruteForceKnapsack(values, weights []float64, capacity float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		v, w := 0.0, 0.0
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				v += values[j]
				w += weights[j]
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	return best
}

// TestQuickKnapsackMatchesBruteForce verifies proven optimality against
// exhaustive enumeration on random small binary knapsacks.
func TestQuickKnapsackMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		obj := make([]float64, n)
		types := make([]VarType, n)
		for j := 0; j < n; j++ {
			values[j] = 1 + float64(rng.Intn(20))
			weights[j] = 1 + float64(rng.Intn(10))
			obj[j] = -values[j]
			types[j] = Binary
		}
		capacity := 1 + rng.Float64()*25
		p := &Problem{
			NumVars:     n,
			Objective:   obj,
			Constraints: []lp.Constraint{{Coeffs: weights, Op: lp.LE, RHS: capacity}},
			VarTypes:    types,
		}
		sol, err := Solve(p, nil)
		if err != nil || sol.Status != Optimal {
			return false
		}
		want := bruteForceKnapsack(values, weights, capacity)
		return approx(-sol.Objective, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEqualitySum exercises the Σ m_k = F structure used by the fill
// ILPs: random costs, capacities, and a fill total; compares with a DP over
// bounded integer variables.
func TestQuickEqualitySum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(5)
		caps := make([]int, k)
		costs := make([]float64, k)
		upper := make([]float64, k)
		types := make([]VarType, k)
		total := 0
		for j := 0; j < k; j++ {
			caps[j] = 1 + rng.Intn(6)
			costs[j] = rng.Float64() * 10
			upper[j] = float64(caps[j])
			types[j] = Integer
			total += caps[j]
		}
		if total == 0 {
			return true
		}
		F := rng.Intn(total + 1)
		sum := make([]float64, k)
		for j := range sum {
			sum[j] = 1
		}
		p := &Problem{
			NumVars:     k,
			Objective:   costs,
			Constraints: []lp.Constraint{{Coeffs: sum, Op: lp.EQ, RHS: float64(F)}},
			VarTypes:    types,
			Upper:       upper,
		}
		sol, err := Solve(p, nil)
		if err != nil || sol.Status != Optimal {
			return false
		}
		// DP exact: linear costs => put everything in cheapest columns.
		type pair struct {
			c   float64
			cap int
		}
		ps := make([]pair, k)
		for j := range ps {
			ps[j] = pair{costs[j], caps[j]}
		}
		// selection by ascending cost
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if ps[j].c < ps[i].c {
					ps[i], ps[j] = ps[j], ps[i]
				}
			}
		}
		rem := F
		want := 0.0
		for _, pr := range ps {
			take := pr.cap
			if take > rem {
				take = rem
			}
			want += float64(take) * pr.c
			rem -= take
		}
		return approx(sol.Objective, want, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKnapsack15(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 15
	p := &Problem{NumVars: n, Objective: make([]float64, n), VarTypes: make([]VarType, n)}
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		p.Objective[j] = -(1 + rng.Float64()*9)
		w[j] = 1 + rng.Float64()*9
		p.VarTypes[j] = Binary
	}
	p.Constraints = []lp.Constraint{{Coeffs: w, Op: lp.LE, RHS: 30}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
