// Tests for the PR-3 solver-core additions: native Upper semantics,
// incumbent seeding, warm starts, and equivalence of the bound-change search
// with the row-based reference implementation.
package ilp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pilfill/internal/lp"
)

// TestUpperZeroFixesVariable is the regression test for the Upper-bound
// semantics fix: an explicit Upper[j] == 0 must fix the variable at zero,
// not mean "unbounded" as a missing entry does.
func TestUpperZeroFixesVariable(t *testing.T) {
	// max x0 + x1 with x0 + x1 <= 10, x0 integer fixed at 0 by Upper[0]=0,
	// x1 integer <= 7: optimum is x = (0, 7), objective -7.
	p := &Problem{
		NumVars:     2,
		Objective:   []float64{-1, -1},
		Constraints: []lp.Constraint{{Coeffs: []float64{1, 1}, Op: lp.LE, RHS: 10}},
		VarTypes:    []VarType{Integer, Integer},
		Upper:       []float64{0, 7},
	}
	for name, solve := range map[string]func(*Problem, *Options) (*Solution, error){
		"bound-change": Solve, "row-based": SolveRowBased,
	} {
		sol, err := solve(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != Optimal || !approx(sol.Objective, -7, 1e-6) {
			t.Errorf("%s: got %v obj %g, want optimal -7", name, sol.Status, sol.Objective)
		}
		if sol.X[0] > 1e-6 {
			t.Errorf("%s: x0 = %g, Upper[0]=0 must fix it at zero", name, sol.X[0])
		}
	}
	// Entries beyond the slice length stay unbounded: shortening Upper to
	// length 1 frees x1, so the knapsack row binds instead.
	p.Upper = []float64{0}
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -10, 1e-6) {
		t.Errorf("got %v obj %g, want optimal -10 (x1 limited only by the row)", sol.Status, sol.Objective)
	}
}

// randomILP builds a small random integer program with bounded variables —
// sometimes feasible, sometimes not, occasionally with equality rows — for
// the equivalence test below.
func randomILP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(5)
	m := 1 + rng.Intn(3)
	p := &Problem{
		NumVars:   n,
		Objective: make([]float64, n),
		VarTypes:  make([]VarType, n),
		Upper:     make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.Objective[j] = math.Round(rng.Float64()*20-10) / 2
		p.VarTypes[j] = Integer
		switch rng.Intn(4) {
		case 0:
			p.Upper[j] = 0 // fixed at zero
		case 1:
			p.Upper[j] = math.Inf(1)
		default:
			p.Upper[j] = float64(1 + rng.Intn(6))
		}
	}
	for i := 0; i < m; i++ {
		c := lp.Constraint{Coeffs: make([]float64, n)}
		for j := 0; j < n; j++ {
			c.Coeffs[j] = float64(rng.Intn(5) - 1) // -1..3, zeros common
		}
		switch rng.Intn(4) {
		case 0:
			c.Op = lp.GE
			c.RHS = float64(rng.Intn(6))
		case 1:
			c.Op = lp.EQ
			c.RHS = float64(rng.Intn(8))
		default:
			c.Op = lp.LE
			c.RHS = float64(rng.Intn(12) + 1)
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// TestQuickSolveMatchesRowBased cross-checks the bound-change search against
// the row-based reference on random problems: statuses must be identical and
// objectives equal whenever a solution was proven. Assignments may differ
// between equal-cost optima and are deliberately not compared.
func TestQuickSolveMatchesRowBased(t *testing.T) {
	opts := &Options{MaxNodes: 50_000}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomILP(rng)
		a, err1 := Solve(p, opts)
		b, err2 := SolveRowBased(p, opts)
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: errors %v / %v", seed, err1, err2)
			return false
		}
		if a.Status != b.Status {
			t.Logf("seed %d: status %v (bound-change) vs %v (row-based)", seed, a.Status, b.Status)
			return false
		}
		if a.Status == Optimal && !approx(a.Objective, b.Objective, 1e-6*(1+math.Abs(b.Objective))) {
			t.Logf("seed %d: objective %g vs %g", seed, a.Objective, b.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// knapsackWithGreedySeed builds a binary knapsack plus its greedy incumbent
// (by value density, which is feasible by construction).
func knapsackWithGreedySeed(rng *rand.Rand, n int) (*Problem, []float64) {
	p := &Problem{NumVars: n, Objective: make([]float64, n), VarTypes: make([]VarType, n)}
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		p.Objective[j] = -(1 + rng.Float64()*9)
		w[j] = 1 + rng.Float64()*9
		p.VarTypes[j] = Binary
	}
	capacity := 0.35 * (float64(n) * 5.5)
	p.Constraints = []lp.Constraint{{Coeffs: w, Op: lp.LE, RHS: capacity}}

	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	for a := 0; a < n; a++ { // selection sort by density, deterministic
		best := a
		for b := a + 1; b < n; b++ {
			if -p.Objective[order[b]]/w[order[b]] > -p.Objective[order[best]]/w[order[best]] {
				best = b
			}
		}
		order[a], order[best] = order[best], order[a]
	}
	inc := make([]float64, n)
	left := capacity
	for _, j := range order {
		if w[j] <= left {
			inc[j] = 1
			left -= w[j]
		}
	}
	return p, inc
}

// TestIncumbentSeedingReducesNodes verifies the ISSUE's seeding contract on
// random knapsacks: the seeded search explores no more nodes than the
// unseeded one and proves the same optimal objective.
func TestIncumbentSeedingReducesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	totalSeeded, totalUnseeded := 0, 0
	for trial := 0; trial < 25; trial++ {
		p, inc := knapsackWithGreedySeed(rng, 14)
		unseeded, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeded, err := Solve(p, &Options{Incumbent: inc})
		if err != nil {
			t.Fatal(err)
		}
		if unseeded.Status != Optimal || seeded.Status != Optimal {
			t.Fatalf("trial %d: statuses %v / %v", trial, unseeded.Status, seeded.Status)
		}
		if !approx(seeded.Objective, unseeded.Objective, 1e-6) {
			t.Fatalf("trial %d: seeded objective %g != unseeded %g", trial, seeded.Objective, unseeded.Objective)
		}
		if seeded.Nodes > unseeded.Nodes {
			t.Errorf("trial %d: seeded explored %d nodes, unseeded %d", trial, seeded.Nodes, unseeded.Nodes)
		}
		totalSeeded += seeded.Nodes
		totalUnseeded += unseeded.Nodes
	}
	if totalSeeded >= totalUnseeded {
		t.Errorf("seeding saved nothing across trials: %d vs %d nodes", totalSeeded, totalUnseeded)
	}
}
