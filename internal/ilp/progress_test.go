package ilp

import (
	"math"
	"math/rand"
	"testing"

	"pilfill/internal/lp"
)

// hardKnapsack builds a knapsack large enough to explore many nodes.
func hardKnapsack(seed int64, n int, rhs float64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{NumVars: n, Objective: make([]float64, n), VarTypes: make([]VarType, n)}
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		p.Objective[j] = -(1 + rng.Float64()*9)
		w[j] = 1 + rng.Float64()*9
		p.VarTypes[j] = Binary
	}
	p.Constraints = []lp.Constraint{{Coeffs: w, Op: lp.LE, RHS: rhs}}
	return p
}

// TestProgressCallback checks the callback cadence and its final report:
// calls arrive every ProgressEvery nodes, counters are monotone, bounds
// never exceed the incumbent, and the last (Done) view matches the
// returned Solution exactly.
func TestProgressCallback(t *testing.T) {
	p := hardKnapsack(7, 18, 31)
	var views []Progress
	sol := solveOK(t, p, &Options{
		Progress:      func(pr Progress) { views = append(views, pr) },
		ProgressEvery: 2,
	})
	if len(views) == 0 {
		t.Fatal("progress callback never called")
	}
	if sol.Nodes >= 4 && len(views) < sol.Nodes/2 {
		t.Fatalf("got %d progress calls over %d nodes with ProgressEvery=2", len(views), sol.Nodes)
	}
	prevNodes := 0
	for i, v := range views {
		if v.Nodes < prevNodes {
			t.Fatalf("view %d: nodes went backwards (%d -> %d)", i, prevNodes, v.Nodes)
		}
		prevNodes = v.Nodes
		if v.LPPivots < 0 || v.Open < 0 {
			t.Fatalf("view %d: negative counters %+v", i, v)
		}
		if v.HasIncumbent && !math.IsInf(v.Bound, -1) && v.Bound > v.Incumbent+1e-9 {
			t.Fatalf("view %d: bound %g above incumbent %g", i, v.Bound, v.Incumbent)
		}
		if i < len(views)-1 && v.Done {
			t.Fatalf("view %d marked Done before the final callback", i)
		}
	}
	last := views[len(views)-1]
	if !last.Done {
		t.Fatal("final progress view not marked Done")
	}
	if last.Nodes != sol.Nodes || last.LPPivots != sol.LPPivots {
		t.Fatalf("final view (%d nodes, %d pivots) != solution (%d, %d)",
			last.Nodes, last.LPPivots, sol.Nodes, sol.LPPivots)
	}
	if sol.Status == Optimal && (!last.HasIncumbent || !approx(last.Incumbent, sol.Objective, 1e-9)) {
		t.Fatalf("final incumbent %+v does not match objective %g", last, sol.Objective)
	}
}

// TestProgressDefaultCadence: with no ProgressEvery, only the final Done
// call is guaranteed on small searches (under DefaultProgressEvery nodes).
func TestProgressDefaultCadence(t *testing.T) {
	p := hardKnapsack(3, 8, 12.3)
	var calls int
	var last Progress
	sol := solveOK(t, p, &Options{Progress: func(pr Progress) { calls++; last = pr }})
	if calls == 0 {
		t.Fatal("no final progress call")
	}
	if !last.Done || last.Nodes != sol.Nodes {
		t.Fatalf("final view %+v does not match solution nodes %d", last, sol.Nodes)
	}
}

// TestProgressUnchangedSearch: attaching Progress must not change the
// result or the amount of work.
func TestProgressUnchangedSearch(t *testing.T) {
	p := hardKnapsack(11, 16, 28)
	plain := solveOK(t, p, nil)
	observed := solveOK(t, p, &Options{ProgressEvery: 1, Progress: func(Progress) {}})
	if plain.Status != observed.Status || !approx(plain.Objective, observed.Objective, 1e-9) ||
		plain.Nodes != observed.Nodes || plain.LPPivots != observed.LPPivots {
		t.Fatalf("progress changed the search: %+v vs %+v", plain, observed)
	}
}
