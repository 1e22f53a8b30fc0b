// Package ilp implements a branch-and-bound solver for mixed integer linear
// programs on top of the simplex solver in internal/lp. It stands in for the
// commercial ILP solver (CPLEX 7.0) used in the original paper; the MDFC
// PIL-Fill instances are small enough per tile that exact branch-and-bound
// with LP-relaxation bounds solves them to proven optimality.
//
// Problems have the form
//
//	minimize    c·x
//	subject to  a_i·x (<=|=|>=) b_i
//	            0 <= x_j <= Upper[j]
//	            x_j integral for Integer/Binary variables
//
// Binary variables are Integer variables with an implicit upper bound of 1.
// An explicit Upper[j] == 0 fixes x_j at zero; "no upper bound" is spelled
// +Inf or a short/absent Upper slice.
//
// The search exploits the bounded-variable simplex in internal/lp: variable
// bounds live in lp.Problem.Lower/Upper rather than constraint rows, so a
// branching decision is a bound change on a child node — the tableau never
// grows with search depth — and one lp.Workspace is reused for every node
// LP. Nodes are explored best-first on the parent LP bound (ties broken
// LIFO, which degenerates to the old depth-first order on equal bounds). A
// caller-supplied feasible incumbent (Options.Incumbent) starts the pruning
// before the first node, and the root LP's reduced costs tighten integer
// variable bounds against the incumbent objective. None of this changes
// which statuses or objective values are returned — only how many nodes and
// pivots it takes to prove them.
package ilp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"pilfill/internal/lp"
)

// VarType classifies a decision variable.
type VarType int

// Variable kinds.
const (
	Continuous VarType = iota
	Integer
	Binary
)

// Problem is a mixed integer linear program. All variables are non-negative.
type Problem struct {
	NumVars     int
	Objective   []float64 // minimized
	Constraints []lp.Constraint
	VarTypes    []VarType // defaults to Continuous when shorter than NumVars
	// Upper holds per-variable upper bounds. Entries beyond the slice length
	// and +Inf entries mean "no bound"; an explicit 0 fixes the variable at
	// zero. (Binary variables are implicitly bounded by 1 regardless.)
	Upper []float64
}

// Status describes the outcome of a MILP solve.
type Status int

// MILP outcomes.
const (
	Optimal    Status = iota // proven optimal
	Feasible                 // incumbent found but limits hit before proof
	Infeasible               // no integer-feasible point exists
	Unbounded                // LP relaxation unbounded
	Limit                    // limits hit with no incumbent
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	X         []float64 // integral entries for integer variables (when found)
	Objective float64
	Nodes     int // branch-and-bound nodes explored
	LPPivots  int // total simplex pivots across all node LPs
}

// Options bound the search effort.
type Options struct {
	MaxNodes int // 0 means DefaultMaxNodes
	// Cancel, when non-nil, is polled once per branch-and-bound node; a true
	// return stops the search as if a limit had been hit (Status Feasible
	// with the incumbent so far, or Limit without one). Callers plumbing a
	// context typically set it to func() bool { return ctx.Err() != nil }.
	Cancel func() bool
	// Incumbent optionally seeds the search with a known feasible integer
	// assignment (length NumVars). It is validated — bounds, integrality
	// within intTol, every constraint within tolerance — and silently
	// ignored if it fails, so callers may pass heuristic solutions without
	// re-checking them. A valid incumbent starts pruning at the root and
	// enables reduced-cost bound tightening; it never changes the returned
	// status or objective, only the work needed to prove them.
	Incumbent []float64
	// Progress, when non-nil, is called every ProgressEvery nodes and once
	// more just before Solve returns, with a point-in-time view of the
	// search. It runs on the solving goroutine — keep it cheap (log a line,
	// record a trace event); it must not call back into the solver.
	Progress func(Progress)
	// ProgressEvery is the node interval between Progress calls; 0 means
	// DefaultProgressEvery. Ignored when Progress is nil.
	ProgressEvery int
}

// DefaultMaxNodes is the node budget applied when Options.MaxNodes is zero.
const DefaultMaxNodes = 200_000

// intTol is the integrality tolerance: an integer variable within intTol of
// an integer counts as integral.
const intTol = 1e-6

// DefaultProgressEvery is the node interval between Progress callbacks when
// Options.ProgressEvery is zero.
const DefaultProgressEvery = 256

// Progress is a point-in-time view of the branch-and-bound search, passed
// to Options.Progress. The incumbent/bound pair is the optimality gap: the
// search ends when every open node's bound reaches the incumbent.
type Progress struct {
	Nodes    int  // nodes explored so far
	LPPivots int  // simplex pivots summed over all node LPs
	Open     int  // nodes still queued
	Done     bool // true on the final callback before Solve returns
	// Incumbent is the best integer objective found so far; valid only when
	// HasIncumbent.
	Incumbent    float64
	HasIncumbent bool
	// Bound is the LP bound of the most recently popped node. Under
	// best-first ordering it is a global lower bound on the optimum
	// (-Inf until the root LP is solved).
	Bound float64
}

// ErrBadProblem indicates structurally invalid input.
var ErrBadProblem = errors.New("ilp: invalid problem")

func (p *Problem) varType(j int) VarType {
	if j < len(p.VarTypes) {
		return p.VarTypes[j]
	}
	return Continuous
}

// upper returns the effective upper bound of variable j: 1 for Binary
// variables, the explicit Upper entry when present (0 legitimately fixes the
// variable), +Inf otherwise.
func (p *Problem) upper(j int) float64 {
	if p.varType(j) == Binary {
		return 1
	}
	if j < len(p.Upper) {
		return p.Upper[j]
	}
	return math.Inf(1)
}

func (p *Problem) validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("%w: NumVars = %d", ErrBadProblem, p.NumVars)
	}
	if len(p.Objective) > p.NumVars || len(p.VarTypes) > p.NumVars || len(p.Upper) > p.NumVars {
		return fmt.Errorf("%w: coefficient vectors longer than NumVars", ErrBadProblem)
	}
	for j, u := range p.Upper {
		if math.IsNaN(u) || u < 0 {
			return fmt.Errorf("%w: Upper[%d] = %v", ErrBadProblem, j, u)
		}
	}
	return nil
}

func fillOptions(opts *Options) Options {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = DefaultMaxNodes
	}
	return o
}

// bound is a branching decision: tighten one variable's lower or upper bound.
type bound struct {
	varIdx int
	upper  bool // true: x <= value, false: x >= value
	value  float64
}

// node is a branch-and-bound subproblem: the base bound box intersected with
// a chain of branching bounds (shared with ancestor nodes).
type node struct {
	bounds []bound
	lower  float64 // parent LP bound, primary best-first key
	seq    int     // push order; later nodes pop first on bound ties
}

// nodeHeap orders nodes best-first by parent LP bound; ties pop the most
// recently pushed node (LIFO), which reproduces the pre-best-first
// depth-first exploration order on plateaus and keeps memory small.
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].lower != h[j].lower {
		return h[i].lower < h[j].lower
	}
	return h[i].seq > h[j].seq
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Solve runs branch-and-bound and returns the best solution found. An error
// is returned only for invalid input or simplex numeric failure. It is a
// thin wrapper over a throwaway Searcher, so the returned Solution is the
// caller's to keep; batch callers solving many problems should reuse one
// Searcher per goroutine instead.
func Solve(p *Problem, opts *Options) (*Solution, error) {
	var s Searcher
	return s.Solve(p, opts)
}

// Searcher is a reusable branch-and-bound engine. One Searcher owns one
// lp.Workspace plus every buffer the search needs — the node freelist, the
// open-node heap, the root and per-node bound boxes, and the incumbent
// vector — so solving many problems on one Searcher allocates only while
// those buffers grow to the problem family's high-water mark and is
// allocation-free in the steady state.
//
// The returned Solution (including its X slice) is searcher-owned and valid
// only until the next Solve on the same Searcher; callers keeping solutions
// across solves must copy them. Results are bit-identical to the package
// level Solve. A Searcher is not safe for concurrent use; the zero value is
// ready to use.
type Searcher struct {
	ws lp.Workspace

	p         *Problem
	baseLo    []float64 // root bound box (tightened in place by tightenRoot)
	baseUp    []float64
	lo, up    []float64 // scratch: current node's materialized bound box
	best      float64
	bestX     []float64 // reusable incumbent buffer; valid when haveBest
	haveBest  bool
	nodes     int
	pivots    int
	seq       int
	rootUnbd  bool
	sawRoot   bool
	lastBound float64 // LP bound of the most recently popped node

	heap nodeHeap   // reusable open-node heap
	free []*node    // node freelist; bounds slices keep their capacity
	prob lp.Problem // reusable node LP shell
	sol  Solution   // reusable result
}

// reset prepares the searcher for a new problem, reusing every buffer.
func (s *Searcher) reset(p *Problem) {
	s.p = p
	s.baseLo = growZeroF(s.baseLo, p.NumVars)
	s.baseUp = growZeroF(s.baseUp, p.NumVars)
	s.lo = growZeroF(s.lo, p.NumVars)
	s.up = growZeroF(s.up, p.NumVars)
	for j := 0; j < p.NumVars; j++ {
		s.baseUp[j] = p.upper(j)
	}
	s.best = math.Inf(1)
	s.haveBest = false
	s.nodes = 0
	s.pivots = 0
	s.seq = 0
	s.rootUnbd = false
	s.sawRoot = false
	s.lastBound = math.Inf(-1)
	for i := range s.heap {
		s.release(s.heap[i])
		s.heap[i] = nil
	}
	s.heap = s.heap[:0]
}

// growZeroF returns s resized to n entries, all zero, reusing capacity.
func growZeroF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// newNode takes a node from the freelist (or allocates one) and fills it
// with the parent bound chain plus an optional extra bound. The node's
// bounds slice keeps its capacity across reuse, so a warm searcher builds
// chains without allocating.
func (s *Searcher) newNode(parent []bound, b *bound, lower float64) *node {
	var n *node
	if k := len(s.free); k > 0 {
		n = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		n = &node{}
	}
	n.bounds = append(n.bounds[:0], parent...)
	if b != nil {
		n.bounds = append(n.bounds, *b)
	}
	n.lower = lower
	s.seq++
	n.seq = s.seq
	return n
}

// release returns a node to the freelist.
func (s *Searcher) release(n *node) { s.free = append(s.free, n) }

// Solve runs branch-and-bound on the searcher's reused buffers. See the
// Searcher doc for the Solution ownership contract; statuses, objectives and
// node/pivot counts are identical to the package-level Solve.
func (s *Searcher) Solve(p *Problem, opts *Options) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	o := fillOptions(opts)
	s.reset(p)
	if o.Incumbent != nil {
		if obj, ok := s.checkIncumbent(o.Incumbent); ok {
			s.best = obj
			s.haveBest = true
		}
	}

	every := o.ProgressEvery
	if every <= 0 {
		every = DefaultProgressEvery
	}
	finish := func(complete bool, open int) *Solution {
		sol := s.finish(complete)
		if o.Progress != nil {
			o.Progress(s.progress(open, true))
		}
		return sol
	}
	heap.Push(&s.heap, s.newNode(nil, nil, math.Inf(-1)))
	for s.heap.Len() > 0 {
		if s.nodes >= o.MaxNodes || (o.Cancel != nil && o.Cancel()) {
			return finish(false, s.heap.Len()), nil
		}
		n := heap.Pop(&s.heap).(*node)
		if n.lower >= s.best-1e-9 {
			// Best-first ordering means every remaining node is pruned too.
			s.release(n)
			return finish(true, 0), nil
		}
		s.lastBound = n.lower
		err := s.expand(n)
		s.release(n)
		if err != nil {
			return nil, err
		}
		if o.Progress != nil && s.nodes%every == 0 {
			o.Progress(s.progress(s.heap.Len(), false))
		}
	}
	return finish(true, 0), nil
}

// progress assembles the point-in-time view passed to Options.Progress.
func (s *Searcher) progress(open int, done bool) Progress {
	p := Progress{
		Nodes:    s.nodes,
		LPPivots: s.pivots,
		Open:     open,
		Done:     done,
		Bound:    s.lastBound,
	}
	if s.haveBest {
		p.Incumbent = s.best
		p.HasIncumbent = true
	}
	return p
}

// expand solves the node's LP relaxation and pushes child nodes (if any)
// onto the searcher's open-node heap.
func (s *Searcher) expand(n *node) error {
	s.nodes++
	// Materialize the node's bound box: the root box intersected with the
	// branching chain. Later bounds in the chain are tighter or equal for
	// the same variable, but intersection keeps this order-independent.
	copy(s.lo, s.baseLo)
	copy(s.up, s.baseUp)
	for _, b := range n.bounds {
		if b.upper {
			if b.value < s.up[b.varIdx] {
				s.up[b.varIdx] = b.value
			}
		} else if b.value > s.lo[b.varIdx] {
			s.lo[b.varIdx] = b.value
		}
	}
	s.prob = lp.Problem{
		NumVars:     s.p.NumVars,
		Objective:   s.p.Objective,
		Constraints: s.p.Constraints,
		Lower:       s.lo,
		Upper:       s.up,
	}
	sol, err := s.ws.Solve(&s.prob)
	if err != nil {
		return err
	}
	s.pivots += sol.Pivots
	isRoot := !s.sawRoot
	s.sawRoot = true
	switch sol.Status {
	case lp.Infeasible:
		return nil
	case lp.Unbounded:
		if isRoot {
			s.rootUnbd = true
			return nil
		}
		// A bound-restricted child cannot be unbounded if the root was not;
		// treat as numeric trouble.
		return lp.ErrNumeric
	}
	if isRoot && s.haveBest {
		s.tightenRoot(sol)
	}
	if sol.Objective >= s.best-1e-9 {
		return nil // bound prune
	}

	// Find the most fractional integer variable.
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
		// Integer feasible: new incumbent, copied out of the workspace-owned
		// LP solution into the searcher's reusable buffer.
		s.bestX = append(s.bestX[:0], sol.X...)
		for j := range s.bestX {
			if s.p.varType(j) != Continuous {
				s.bestX[j] = math.Round(s.bestX[j])
			}
		}
		s.best = sol.Objective
		s.haveBest = true
		return nil
	}

	v := sol.X[branchVar]
	floorV := math.Floor(v)
	// The "down" child is pushed second so it receives the higher seq and,
	// on equal LP bounds, pops first — preserving the old depth-first
	// down-before-up preference (fill problems tend to round down toward
	// feasibility).
	upB := bound{branchVar, false, floorV + 1}
	downB := bound{branchVar, true, floorV}
	heap.Push(&s.heap, s.newNode(n.bounds, &upB, sol.Objective))
	heap.Push(&s.heap, s.newNode(n.bounds, &downB, sol.Objective))
	return nil
}

// checkIncumbent validates a caller-supplied incumbent: right length, finite,
// integral within intTol where required, inside the bound box, and
// satisfying every constraint within 1e-6·(1+|RHS|). On success the rounded
// copy is left in s.bestX and its exact objective returned; ok is false if
// any check fails (s.bestX then holds garbage, guarded by haveBest).
func (s *Searcher) checkIncumbent(inc []float64) (obj float64, ok bool) {
	if len(inc) != s.p.NumVars {
		return 0, false
	}
	tol := intTol
	x := append(s.bestX[:0], inc...)
	s.bestX = x
	for j := range x {
		if math.IsNaN(x[j]) || math.IsInf(x[j], 0) {
			return 0, false
		}
		if s.p.varType(j) != Continuous {
			r := math.Round(x[j])
			if math.Abs(x[j]-r) > tol {
				return 0, false
			}
			x[j] = r
		}
		if x[j] < -tol || x[j] > s.baseUp[j]+tol {
			return 0, false
		}
		if x[j] < 0 {
			x[j] = 0
		}
		if x[j] > s.baseUp[j] {
			x[j] = s.baseUp[j]
		}
	}
	for _, c := range s.p.Constraints {
		lhs := 0.0
		for j, v := range c.Coeffs {
			lhs += v * x[j]
		}
		ctol := 1e-6 * (1 + math.Abs(c.RHS))
		switch c.Op {
		case lp.LE:
			if lhs > c.RHS+ctol {
				return 0, false
			}
		case lp.GE:
			if lhs < c.RHS-ctol {
				return 0, false
			}
		case lp.EQ:
			if math.Abs(lhs-c.RHS) > ctol {
				return 0, false
			}
		}
	}
	for j, c := range s.p.Objective {
		obj += c * x[j]
	}
	return obj, true
}

// tightenRoot shrinks the root bound box of integer variables using the root
// LP's reduced costs against the incumbent objective. For a nonbasic
// variable at its lower bound with reduced cost d > 0, any feasible point
// with objective <= best satisfies x_j <= lo_j + gap/d (LP duality: moving
// x_j up by t costs at least d·t); symmetrically at the upper bound. The
// floors keep every solution at least as good as the incumbent, so the
// optimal objective is untouched — only the search space shrinks. Tightened
// bounds are written to the root box and inherited by all descendants.
func (s *Searcher) tightenRoot(sol *lp.Solution) {
	if len(sol.ReducedCosts) != s.p.NumVars || math.IsInf(s.best, 1) {
		return
	}
	gap := s.best - sol.Objective
	if gap < 0 || math.IsInf(gap, 1) || math.IsNaN(gap) {
		return
	}
	for j := 0; j < s.p.NumVars; j++ {
		if s.p.varType(j) == Continuous {
			continue
		}
		d := sol.ReducedCosts[j]
		if d > 1e-7 {
			nb := s.baseLo[j] + math.Floor(gap/d+1e-6)
			if nb < s.baseUp[j] {
				s.baseUp[j] = nb
			}
		} else if d < -1e-7 {
			if math.IsInf(s.baseUp[j], 1) {
				continue
			}
			nb := s.baseUp[j] - math.Floor(gap/-d+1e-6)
			if nb > s.baseLo[j] {
				s.baseLo[j] = nb
			}
		}
	}
}

// finish assembles the final Solution in the searcher's reusable slot.
// complete reports whether the search space was exhausted (as opposed to
// hitting node/time limits).
func (s *Searcher) finish(complete bool) *Solution {
	s.sol = Solution{Nodes: s.nodes, LPPivots: s.pivots}
	sol := &s.sol
	switch {
	case s.rootUnbd:
		sol.Status = Unbounded
	case s.haveBest && complete:
		sol.Status = Optimal
		sol.X = s.bestX
		sol.Objective = s.best
	case s.haveBest:
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
