package ilp

import (
	"math"

	"pilfill/internal/lp"
)

// SolveRowBased runs the pre-optimization branch-and-bound algorithm:
// depth-first node order, every finite upper bound and every branching
// decision encoded as an explicit constraint row, a fresh simplex tableau
// allocated per node, and no incumbent seeding or bound tightening. It
// returns exactly the same statuses and optimal objectives as Solve (both
// are exact), and exists as the independent reference that equivalence
// tests compare Solve against, on random programs and on every real ILP-I
// and ILP-II tile program of a table grid point. Options.Incumbent is
// ignored.
func SolveRowBased(p *Problem, opts *Options) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	o := fillOptions(opts)

	// Base constraints: the caller's rows plus one LE row per finite upper
	// bound (the encoding the bounded-variable simplex made obsolete).
	base := make([]lp.Constraint, 0, len(p.Constraints)+p.NumVars)
	base = append(base, p.Constraints...)
	for j := 0; j < p.NumVars; j++ {
		if ub := p.upper(j); !math.IsInf(ub, 1) {
			co := make([]float64, j+1)
			co[j] = 1
			base = append(base, lp.Constraint{Coeffs: co, Op: lp.LE, RHS: ub})
		}
	}

	s := &rowSearcher{p: p, base: base, best: math.Inf(1)}
	stack := []*rowNode{{}}
	for len(stack) > 0 {
		if s.nodes >= o.MaxNodes || (o.Cancel != nil && o.Cancel()) {
			return s.finish(false), nil
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.lower >= s.best-1e-9 {
			continue // pruned by bound discovered after the node was pushed
		}
		children, err := s.expand(n)
		if err != nil {
			return nil, err
		}
		stack = append(stack, children...)
	}
	return s.finish(true), nil
}

// rowBound is a branching bound in row form.
type rowBound struct {
	varIdx int
	op     lp.Op // LE or GE
	value  float64
}

type rowNode struct {
	bounds []rowBound
	lower  float64
}

type rowSearcher struct {
	p        *Problem
	base     []lp.Constraint
	best     float64
	bestX    []float64
	nodes    int
	pivots   int
	rootUnbd bool
	sawRoot  bool
}

func (s *rowSearcher) expand(n *rowNode) ([]*rowNode, error) {
	s.nodes++
	prob := &lp.Problem{
		NumVars:     s.p.NumVars,
		Objective:   s.p.Objective,
		Constraints: s.base,
	}
	if len(n.bounds) > 0 {
		cons := make([]lp.Constraint, len(s.base), len(s.base)+len(n.bounds))
		copy(cons, s.base)
		for _, b := range n.bounds {
			co := make([]float64, b.varIdx+1)
			co[b.varIdx] = 1
			cons = append(cons, lp.Constraint{Coeffs: co, Op: b.op, RHS: b.value})
		}
		prob.Constraints = cons
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, err
	}
	s.pivots += sol.Pivots
	isRoot := !s.sawRoot
	s.sawRoot = true
	switch sol.Status {
	case lp.Infeasible:
		return nil, nil
	case lp.Unbounded:
		if isRoot {
			s.rootUnbd = true
			return nil, nil
		}
		return nil, lp.ErrNumeric
	}
	if sol.Objective >= s.best-1e-9 {
		return nil, nil // bound prune
	}

	branchVar := -1
	worstDist := intTol
	for j := 0; j < s.p.NumVars; j++ {
		if s.p.varType(j) == Continuous {
			continue
		}
		v := sol.X[j]
		dist := math.Abs(v - math.Round(v))
		if dist > worstDist {
			worstDist = dist
			branchVar = j
		}
	}
	if branchVar < 0 {
		x := make([]float64, len(sol.X))
		copy(x, sol.X)
		for j := range x {
			if s.p.varType(j) != Continuous {
				x[j] = math.Round(x[j])
			}
		}
		s.best = sol.Objective
		s.bestX = x
		return nil, nil
	}

	v := sol.X[branchVar]
	floorV := math.Floor(v)
	// Push the "down" child last so depth-first explores it first.
	up := &rowNode{bounds: appendRowBound(n.bounds, rowBound{branchVar, lp.GE, floorV + 1}), lower: sol.Objective}
	down := &rowNode{bounds: appendRowBound(n.bounds, rowBound{branchVar, lp.LE, floorV}), lower: sol.Objective}
	return []*rowNode{up, down}, nil
}

func appendRowBound(parent []rowBound, b rowBound) []rowBound {
	out := make([]rowBound, len(parent)+1)
	copy(out, parent)
	out[len(parent)] = b
	return out
}

func (s *rowSearcher) finish(complete bool) *Solution {
	sol := &Solution{Nodes: s.nodes, LPPivots: s.pivots}
	switch {
	case s.rootUnbd:
		sol.Status = Unbounded
	case s.bestX != nil && complete:
		sol.Status = Optimal
		sol.X = s.bestX
		sol.Objective = s.best
	case s.bestX != nil:
		sol.Status = Feasible
		sol.X = s.bestX
		sol.Objective = s.best
	case complete:
		sol.Status = Infeasible
	default:
		sol.Status = Limit
	}
	return sol
}
