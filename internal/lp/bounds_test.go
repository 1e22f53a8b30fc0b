package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUpperBoundNative(t *testing.T) {
	// maximize x + y  s.t. x + y <= 10, x <= 3 (native bound), y <= 4.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: LE, RHS: 10},
		},
		Upper: []float64{3, 4},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -7, 1e-6) {
		t.Errorf("objective = %g, want -7 (x=%v)", sol.Objective, sol.X)
	}
	if !approx(sol.X[0], 3, 1e-6) || !approx(sol.X[1], 4, 1e-6) {
		t.Errorf("x = %v, want [3 4]", sol.X)
	}
}

func TestUpperBoundZeroFixesVariable(t *testing.T) {
	// Upper[0] == 0 pins x0 at zero; the optimum must route through x1.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: GE, RHS: 5},
		},
		Upper: []float64{0, math.Inf(1)},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.X[0], 0, 1e-9) {
		t.Errorf("x0 = %g, want exactly 0", sol.X[0])
	}
	if !approx(sol.Objective, 10, 1e-6) {
		t.Errorf("objective = %g, want 10", sol.Objective)
	}
}

func TestLowerBoundShift(t *testing.T) {
	// minimize x + y  s.t. x + y >= 3 with x in [2,5], y in [4,9].
	// Lower bounds already satisfy the row: optimum x=2, y=4, obj=6.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: GE, RHS: 3},
		},
		Lower: []float64{2, 4},
		Upper: []float64{5, 9},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, 6, 1e-6) {
		t.Errorf("objective = %g, want 6 (x=%v)", sol.Objective, sol.X)
	}
	if !approx(sol.X[0], 2, 1e-6) || !approx(sol.X[1], 4, 1e-6) {
		t.Errorf("x = %v, want [2 4]", sol.X)
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// minimize x with x in [-3, 7] and x + y == 1, y in [0, 2]:
	// optimum x=-1 (y=2)... no: minimize x alone => x = 1-y, smallest x at
	// y=2 => x=-1. obj=-1.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: EQ, RHS: 1},
		},
		Lower: []float64{-3, 0},
		Upper: []float64{7, 2},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -1, 1e-6) || !approx(sol.X[0], -1, 1e-6) {
		t.Errorf("x = %v obj = %g, want x0=-1 obj=-1", sol.X, sol.Objective)
	}
}

func TestEmptyBoundBoxIsInfeasible(t *testing.T) {
	// lo > up must report Infeasible (status, not error) — branch-and-bound
	// children create empty boxes routinely.
	p := &Problem{
		NumVars:     1,
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Op: LE, RHS: 10}},
		Lower:       []float64{4},
		Upper:       []float64{2},
	}
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestBoundsTightenedByConstraint(t *testing.T) {
	// Bound is not the binding limit: maximize x, x <= 100 (bound) but row
	// says x <= 5.
	p := &Problem{
		NumVars:     1,
		Objective:   []float64{-1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Op: LE, RHS: 5}},
		Upper:       []float64{100},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || !approx(sol.X[0], 5, 1e-6) {
		t.Fatalf("x = %v status = %v, want x=5 optimal", sol.X, sol.Status)
	}
}

func TestBoundFlipOnly(t *testing.T) {
	// No constraints at all: the optimum is reached purely by bound flips.
	p := &Problem{
		NumVars:   3,
		Objective: []float64{-2, 1, -3},
		Upper:     []float64{4, 5, 6},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -26, 1e-6) {
		t.Errorf("objective = %g, want -26 (x=%v)", sol.Objective, sol.X)
	}
	want := []float64{4, 0, 6}
	for j, w := range want {
		if !approx(sol.X[j], w, 1e-6) {
			t.Errorf("x[%d] = %g, want %g", j, sol.X[j], w)
		}
	}
}

func TestReducedCostsOrientation(t *testing.T) {
	// minimize x - 2y s.t. x + y <= 10, x in [0,3], y in [0,4].
	// Optimum x=0 (at lower, reduced cost +1), y=4 (at upper, reduced cost
	// -2).
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, -2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: LE, RHS: 10},
		},
		Upper: []float64{3, 4},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if len(sol.ReducedCosts) != 2 {
		t.Fatalf("ReducedCosts = %v", sol.ReducedCosts)
	}
	if sol.ReducedCosts[0] < eps {
		t.Errorf("rc[0] = %g, want > 0 (nonbasic at lower)", sol.ReducedCosts[0])
	}
	if sol.ReducedCosts[1] > -eps {
		t.Errorf("rc[1] = %g, want < 0 (nonbasic at upper)", sol.ReducedCosts[1])
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := &Workspace{}
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		p := randomBoundedLP(rng)
		want, err := Solve(p)
		if err != nil {
			t.Fatalf("iter %d: fresh Solve: %v", iter, err)
		}
		got, err := ws.Solve(p)
		if err != nil {
			t.Fatalf("iter %d: workspace Solve: %v", iter, err)
		}
		if got.Status != want.Status {
			t.Fatalf("iter %d: status %v != %v", iter, got.Status, want.Status)
		}
		if got.Status == Optimal && !approx(got.Objective, want.Objective, 1e-7) {
			t.Fatalf("iter %d: objective %g != %g", iter, got.Objective, want.Objective)
		}
	}
}

// randomBoundedLP builds a random LP with a mix of bounded and free
// variables and LE/GE/EQ rows, feasible-or-not by chance.
func randomBoundedLP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(6)
	m := rng.Intn(5)
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = rng.Float64()*6 - 3
	}
	p.Upper = make([]float64, n)
	for j := range p.Upper {
		switch rng.Intn(3) {
		case 0:
			p.Upper[j] = math.Inf(1)
		case 1:
			p.Upper[j] = float64(rng.Intn(8))
		default:
			p.Upper[j] = rng.Float64() * 10
		}
	}
	if rng.Intn(2) == 0 {
		p.Lower = make([]float64, n)
		for j := range p.Lower {
			lo := rng.Float64() * 3
			if !math.IsInf(p.Upper[j], 1) && lo > p.Upper[j] {
				lo = p.Upper[j]
			}
			p.Lower[j] = lo
		}
	}
	for i := 0; i < m; i++ {
		co := make([]float64, n)
		for j := range co {
			co[j] = rng.Float64()*4 - 1
		}
		op := Op(rng.Intn(3))
		p.Constraints = append(p.Constraints, Constraint{Coeffs: co, Op: op, RHS: rng.Float64()*12 - 2})
	}
	// Unbounded directions are possible when some Upper is +Inf; that is
	// fine — callers compare statuses.
	return p
}

// rowEncoded converts native bounds into explicit constraint rows, the
// encoding the pre-bounds solver required. Used as the reference model for
// the equivalence property test.
func rowEncoded(p *Problem) *Problem {
	q := &Problem{
		NumVars:     p.NumVars,
		Objective:   p.Objective,
		Constraints: append([]Constraint(nil), p.Constraints...),
	}
	for j := 0; j < p.NumVars; j++ {
		co := make([]float64, j+1)
		co[j] = 1
		if lo := p.lowerOf(j); lo != 0 {
			q.Constraints = append(q.Constraints, Constraint{Coeffs: co, Op: GE, RHS: lo})
		}
		if hi := p.upperOf(j); !math.IsInf(hi, 1) {
			q.Constraints = append(q.Constraints, Constraint{Coeffs: co, Op: LE, RHS: hi})
		}
	}
	return q
}

// TestQuickBoundedMatchesRowEncoding is the exactness property test for the
// bounded-variable simplex: on random LPs, solving with native bounds and
// solving the row-encoded equivalent must agree on status and (when Optimal)
// on objective.
func TestQuickBoundedMatchesRowEncoding(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomBoundedLP(rng)
		// Negative lower bounds are exercised by TestNegativeLowerBound; the
		// row encoding models x >= 0 implicitly, so keep lows non-negative
		// here (randomBoundedLP already does).
		native, err1 := Solve(p)
		encoded, err2 := Solve(rowEncoded(p))
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil // both numeric-fail is a wash
		}
		if native.Status != encoded.Status {
			t.Logf("seed %d: native %v vs encoded %v", seed, native.Status, encoded.Status)
			return false
		}
		if native.Status != Optimal {
			return true
		}
		if !approx(native.Objective, encoded.Objective, 1e-6*(1+math.Abs(encoded.Objective))) {
			t.Logf("seed %d: native obj %g vs encoded %g", seed, native.Objective, encoded.Objective)
			return false
		}
		// The native optimum must respect its own bounds.
		for j, x := range native.X {
			if x < p.lowerOf(j)-1e-6 || x > p.upperOf(j)+1e-6 {
				t.Logf("seed %d: x[%d]=%g outside [%g,%g]", seed, j, x, p.lowerOf(j), p.upperOf(j))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSimplex measures the bounded-variable solver on a transportation
// LP with native box bounds, with and without workspace reuse.
func BenchmarkSimplex(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ns, nd := 8, 10
	nv := ns * nd
	obj := make([]float64, nv)
	up := make([]float64, nv)
	for i := range obj {
		obj[i] = 1 + rng.Float64()*9
		up[i] = 45
	}
	var cons []Constraint
	for i := 0; i < ns; i++ {
		co := make([]float64, nv)
		for j := 0; j < nd; j++ {
			co[i*nd+j] = 1
		}
		cons = append(cons, Constraint{Coeffs: co, Op: EQ, RHS: 50})
	}
	for j := 0; j < nd; j++ {
		co := make([]float64, nv)
		for i := 0; i < ns; i++ {
			co[i*nd+j] = 1
		}
		cons = append(cons, Constraint{Coeffs: co, Op: EQ, RHS: 40})
	}
	p := &Problem{NumVars: nv, Objective: obj, Constraints: cons, Upper: up}

	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		ws := &Workspace{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
