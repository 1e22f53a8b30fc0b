package core

import (
	"context"
	"fmt"
	"math"

	"pilfill/internal/ilp"
	"pilfill/internal/lp"
)

// normalize rescales a coefficient vector (and optional RHS) so its largest
// magnitude is 1. Delay coefficients are ~1e-16 seconds — far below the
// simplex pivot tolerance — so without this the solver would see an all-zero
// objective. Scaling the objective or an inequality by a positive constant
// changes neither the argmin nor the feasible set.
func normalize(v []float64, rhs *float64) {
	worst := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > worst {
			worst = a
		}
	}
	if worst == 0 {
		return
	}
	inv := 1 / worst
	for i := range v {
		v[i] *= inv
	}
	if rhs != nil {
		*rhs *= inv
	}
}

// BuildILPI constructs the ILP-I program for an instance together with a
// feasible integer incumbent used to warm-start branch-and-bound. The
// incumbent pours fill into columns in ascending per-feature cost order —
// for ILP-I's linear objective with a single Σ m_k = F row and box bounds
// this is in fact optimal, so the seeded search typically proves optimality
// at the root node. Returns nils for trivial (empty) instances.
func BuildILPI(in *Instance) (*ilp.Problem, []float64) {
	return NewSolveScratch().buildILPI(in)
}

// buildILPI is BuildILPI sourcing every slice from the scratch.
func (sc *SolveScratch) buildILPI(in *Instance) (*ilp.Problem, []float64) {
	k := len(in.Columns)
	if k == 0 || in.F == 0 {
		return nil, nil
	}
	p := sc.problem(k)
	sum := sc.newRow(k)
	for i := range in.Columns {
		p.Objective[i] = in.Columns[i].LinearSlope
		p.VarTypes[i] = ilp.Integer
		p.Upper[i] = float64(in.Columns[i].MaxM)
		sum[i] = 1
	}
	normalize(p.Objective, nil)
	sc.cons = append(sc.cons[:0], lp.Constraint{Coeffs: sum, Op: lp.EQ, RHS: float64(in.F)})
	p.Constraints = sc.cons

	// Incumbent: cheapest-slope-first greedy (normalization preserves the
	// order). Index tie-break keeps it deterministic; the (objective, index)
	// key is a total order, so any sort yields the same permutation.
	sc.keys = grow(sc.keys, k)
	keys := sc.keys
	for i := range keys {
		keys[i] = costKey{k: i, key: p.Objective[i]}
	}
	sortCostKeys(keys)
	sc.inc = growZero(sc.inc, k)
	inc := sc.inc
	remaining := in.F
	for _, kd := range keys {
		if remaining == 0 {
			break
		}
		take := in.Columns[kd.k].MaxM
		if take > remaining {
			take = remaining
		}
		inc[kd.k] = float64(take)
		remaining -= take
	}
	return p, inc
}

// SolveILPI is the paper's ILP-I (Eqs 10–14): one bounded integer variable
// m_k per slack column, the Eq 6 *linearized* capacitance folded into a
// per-feature cost, and the fill total as an equality. The linearization is
// exactly the method's weakness the paper demonstrates: the solver optimizes
// the linear surrogate, and the resulting placement is then measured with
// the exact model (sometimes losing even to Normal fill).
func SolveILPI(in *Instance, opts *ilp.Options) (Assignment, *ilp.Solution, error) {
	sc := NewSolveScratch()
	a := make(Assignment, len(in.Columns))
	sol, err := sc.solveILPI(in, sc.withOpts(opts), a)
	return oneOff(a, sol, err)
}

// oneOff shapes a fresh-scratch solve's outputs for the exported wrappers:
// no assignment on error, and an Optimal solution for trivial (empty)
// instances, which never reach the searcher.
func oneOff(a Assignment, sol *ilp.Solution, err error) (Assignment, *ilp.Solution, error) {
	if err != nil {
		return nil, sol, err
	}
	if sol == nil {
		sol = &ilp.Solution{Status: ilp.Optimal}
	}
	return a, sol, nil
}

// NetCap is the optional per-net bound on added (unweighted) delay within a
// tile — the paper's "budgeted capacitance" future-work extension and the
// safeguard suggested for Greedy's pathological cases.
type NetCap struct {
	// MaxAddedDelay is the uniform per-net limit in seconds; <= 0 disables
	// it (unless PerNet is set).
	MaxAddedDelay float64
	// PerNet, when non-nil, supplies an individual budget per net index and
	// takes precedence over MaxAddedDelay.
	PerNet []float64
}

// budgetFor returns the applicable bound for a net, or 0 when unbounded.
func (nc *NetCap) budgetFor(net int) float64 {
	if nc.PerNet != nil {
		if net < len(nc.PerNet) {
			return nc.PerNet[net]
		}
		return 0
	}
	return nc.MaxAddedDelay
}

// active reports whether any per-net bound is configured (nil-safe).
func (nc *NetCap) active() bool {
	return nc != nil && (nc.MaxAddedDelay > 0 || nc.PerNet != nil)
}

// capped reports whether a net carries a positive bound.
func (nc *NetCap) capped(net int) bool { return net >= 0 && nc.budgetFor(net) > 0 }

// ilpiiVars records where a column's variables live in the ILP-II program:
// either a run of MaxM+1 binary indicators or a single bounded integer for
// free (unattributed) columns.
type ilpiiVars struct {
	base  int // first variable index
	count int // number of indicators (MaxM+1), or 1 for a free integer
	free  bool
}

// ILPIIProgram is a built ILP-II instance: the MILP, the variable layout
// needed to decode its solutions back into an Assignment, and a heuristic
// incumbent for warm-starting. The incumbent comes from SolveMarginalGreedy
// — provably optimal for the convex floating-fill cost curves. The marginal
// greedy ignores per-net delay-cap rows, so when caps are active the
// incumbent is repaired against them (see repairIncumbent) before being
// handed to the solver; exactly the hardest instances used to lose their
// warm start here, because the solver validates incumbents and silently
// ignores ones a cap row rejects. IncumbentRepaired/IncumbentDropped record
// the outcome.
type ILPIIProgram struct {
	P         *ilp.Problem
	Incumbent []float64
	// IncumbentRepaired reports that the marginal-greedy incumbent violated a
	// per-net cap row and was repaired into cap feasibility before seeding
	// the solver. IncumbentDropped reports that no repair could reach the
	// fill total within the caps, so the search starts cold (Incumbent nil).
	IncumbentRepaired bool
	IncumbentDropped  bool
	vars              []ilpiiVars
	k                 int
}

// Decode maps a solution vector of P back to a per-column fill Assignment.
func (g *ILPIIProgram) Decode(x []float64) Assignment {
	a := make(Assignment, g.k)
	g.decodeInto(a, x)
	return a
}

// decodeInto is Decode writing into a caller-owned Assignment (length k).
func (g *ILPIIProgram) decodeInto(a Assignment, x []float64) {
	for i, v := range g.vars {
		a[i] = 0
		if v.free {
			a[i] = int(x[v.base] + 0.5)
			continue
		}
		for n := 0; n < v.count; n++ {
			if x[v.base+n] > 0.5 {
				a[i] = n
				break
			}
		}
	}
}

// encodeInto maps an Assignment to a zeroed solution vector x of P (the
// inverse of Decode), used to express the greedy incumbent in indicator
// variables.
func (g *ILPIIProgram) encodeInto(x []float64, a Assignment) {
	for i, v := range g.vars {
		if v.free {
			x[v.base] = float64(a[i])
		} else {
			x[v.base+a[i]] = 1
		}
	}
}

// BuildILPII constructs the ILP-II program (Eqs 16–23) for an instance: the
// fill count of each attributed column is expanded into binary indicator
// variables m_{k,n} (exactly one n per column, Eq 18–19), so the exact
// lookup-table cost f(n, d_k) enters the objective as constants (Eq 20).
// Unattributed (free) columns keep a single zero-cost bounded integer — an
// exact and much smaller reformulation, since their cost curve is
// identically zero.
//
// One deviation from the printed formulation, noted in DESIGN.md: Eq 19 as
// published sums n = 1..C_k, which would force every column to hold fill;
// we include the n = 0 indicator so columns may stay empty.
//
// If netCap is non-nil with a positive bound, extra rows limit each net's
// total added unweighted delay inside the tile. Returns nil for trivial
// (empty) instances.
func BuildILPII(in *Instance, netCap *NetCap) *ILPIIProgram {
	sc := NewSolveScratch()
	inc := make(Assignment, len(in.Columns))
	repaired, dropped := sc.ilpiiIncumbent(in, netCap, inc, nil)
	if dropped {
		inc = nil
	}
	g := sc.buildILPII(in, netCap, inc)
	if g != nil {
		g.IncumbentRepaired, g.IncumbentDropped = repaired, dropped
	}
	return g
}

// buildILPII is BuildILPII sourcing every slice from the scratch, seeded
// with the given incumbent assignment (nil: the search starts cold).
func (sc *SolveScratch) buildILPII(in *Instance, netCap *NetCap, inc Assignment) *ILPIIProgram {
	k := len(in.Columns)
	if k == 0 || in.F == 0 {
		return nil
	}
	// Variable layout: first the binary expansions of costed columns, then
	// one integer per free column.
	sc.vars = grow(sc.vars, k)
	vars := sc.vars
	nv := 0
	for i := range in.Columns {
		cv := &in.Columns[i]
		if cv.CostExact == nil {
			vars[i] = ilpiiVars{base: nv, count: 1, free: true}
			nv++
		} else {
			vars[i] = ilpiiVars{base: nv, count: cv.MaxM + 1}
			nv += cv.MaxM + 1
		}
	}
	p := sc.problem(nv)
	cons := sc.cons[:0]
	fillRow := sc.newRow(nv)
	for i := range in.Columns {
		cv := &in.Columns[i]
		v := vars[i]
		if v.free {
			p.VarTypes[v.base] = ilp.Integer
			p.Upper[v.base] = float64(cv.MaxM)
			fillRow[v.base] = 1
			continue
		}
		oneRow := sc.newRow(v.base + v.count)
		for n := 0; n <= cv.MaxM; n++ {
			j := v.base + n
			// Declared Integer with a native upper bound of 1 (equivalent to
			// Binary; the bounded-variable simplex carries bounds for free,
			// no constraint rows are added either way).
			p.VarTypes[j] = ilp.Integer
			p.Upper[j] = 1
			p.Objective[j] = cv.costAt(n)
			fillRow[j] = float64(n)
			oneRow[j] = 1
		}
		cons = append(cons, lp.Constraint{Coeffs: oneRow, Op: lp.EQ, RHS: 1})
	}
	normalize(p.Objective, nil)
	cons = append(cons, lp.Constraint{Coeffs: fillRow, Op: lp.EQ, RHS: float64(in.F)})

	if netCap.active() {
		// Per-net rows: Σ_k Σ_n ΔC_k(n)·sf·R_l(x_k)·m_{k,n} <= cap. The
		// switch-factor-scaled resistances keep the bound consistent with
		// the per-net delays Evaluate and Result.PerNet report.
		rows := sc.netRowsBuf()
		for i := range in.Columns {
			cv := &in.Columns[i]
			v := vars[i]
			if v.free || cv.DeltaC == nil {
				continue
			}
			addSide := func(net int, r float64) {
				if net < 0 {
					return
				}
				row := rows[net]
				if row == nil {
					row = sc.newRow(nv)
					rows[net] = row
				}
				for n := 1; n <= cv.MaxM; n++ {
					row[v.base+n] += cv.DeltaC[n] * r
				}
			}
			addSide(cv.NetLow, cv.REffLow)
			addSide(cv.NetHigh, cv.REffHigh)
		}
		// Ascending net order keeps the constraint order — and therefore the
		// branch-and-bound trajectory — identical run to run (map iteration
		// order is randomized).
		for _, net := range sc.sortedNets(rows) {
			row := rows[net]
			rhs := netCap.budgetFor(net)
			if rhs <= 0 {
				continue
			}
			normalize(row, &rhs)
			cons = append(cons, lp.Constraint{Coeffs: row, Op: lp.LE, RHS: rhs})
		}
	}
	p.Constraints = cons
	sc.cons = cons

	sc.prog = ILPIIProgram{P: p, vars: vars, k: k}
	g := &sc.prog
	if inc != nil {
		sc.inc = growZero(sc.inc, nv)
		g.encodeInto(sc.inc, inc)
		g.Incumbent = sc.inc
	}
	return g
}

// ilpiiIncumbent writes ILP-II's warm start into a (zeroed, length ==
// columns): the marginal-greedy assignment, repaired into per-net cap
// feasibility when caps are active. A non-nil sweep is that assignment
// already swept (a convex tile's hull sweep) and is copied instead of
// swept again. dropped reports that no repair could reach the fill total
// within the caps; a then holds no usable incumbent.
func (sc *SolveScratch) ilpiiIncumbent(in *Instance, netCap *NetCap, a, sweep Assignment) (repaired, dropped bool) {
	if sweep != nil {
		copy(a, sweep)
	} else {
		sc.solveMarginalGreedy(a, in, nil)
	}
	if !netCap.active() {
		return false, false
	}
	repaired, ok := sc.repairIncumbent(in, netCap, a)
	return repaired && ok, !ok
}

// repairIncumbent makes a heuristic assignment feasible under the per-net
// delay caps while keeping Σm = F, so the warm start survives exactly on the
// capped instances where it matters most. The repair is deterministic: while
// any capped net is over budget, the contributing feature with the highest
// marginal objective cost is removed (lowest column index on ties); the
// resulting deficit is then refilled one feature at a time into the cheapest
// column with headroom whose addition keeps every capped net within budget.
// Returns repaired = true when the assignment was modified and ok = false
// when the fill total cannot be restored within the caps (the caller then
// drops the incumbent).
func (sc *SolveScratch) repairIncumbent(in *Instance, netCap *NetCap, a Assignment) (repaired, ok bool) {
	// Dense ids for the nets a cap can bind on, in order of first appearance,
	// and each column's two side ids (-1 for an uncapped side). Neighboring
	// columns mostly share their bounding nets, so the lookup scans the
	// newest ids first.
	nets := sc.repairNets[:0]
	idOf := func(net int) int {
		if !netCap.capped(net) {
			return -1
		}
		for r := len(nets) - 1; r >= 0; r-- {
			if nets[r] == net {
				return r
			}
		}
		nets = append(nets, net)
		return len(nets) - 1
	}
	ids := grow(sc.repairIDs, 2*len(in.Columns))
	sc.repairIDs = ids
	for k := range in.Columns {
		cv := &in.Columns[k]
		ids[2*k], ids[2*k+1] = idOf(cv.NetLow), idOf(cv.NetHigh)
	}
	sc.repairNets = nets
	if len(nets) == 0 {
		return false, true
	}
	// Per-net spend and budget by id. Spend is the same raw (un-normalized)
	// delay the cap rows encode, accumulated column by column; the solver
	// checks the normalized rows with a 1e-6·(1+|RHS|) tolerance, so raw
	// feasibility implies acceptance.
	spend := growZero(sc.repairSpend, len(nets))
	budget := grow(sc.repairBudget, len(nets))
	sc.repairSpend, sc.repairBudget = spend, budget
	for r, net := range nets {
		budget[r] = netCap.budgetFor(net)
	}
	// charge adds sign·ΔC(m) times each capped side's switch-factor-scaled
	// resistance to that net's spend.
	charge := func(k, m int, sign float64) {
		cv := &in.Columns[k]
		if m <= 0 || cv.DeltaC == nil {
			return
		}
		dc := cv.DeltaC[m] * sign
		if r := ids[2*k]; r >= 0 {
			spend[r] += dc * cv.REffLow
		}
		if r := ids[2*k+1]; r >= 0 {
			spend[r] += dc * cv.REffHigh
		}
	}
	for k, m := range a {
		charge(k, m, 1)
	}
	// overNet returns the id of the lowest-index net over budget, or -1.
	overNet := func() int {
		over := -1
		for r := range nets {
			if spend[r] > budget[r] && (over < 0 || nets[r] < nets[over]) {
				over = r
			}
		}
		return over
	}
	r := overNet()
	if r < 0 {
		return false, true
	}

	deficit := 0
	for ; r >= 0; r = overNet() {
		net := nets[r]
		// Remove the feature whose marginal cost is highest among columns
		// feeding this net; every contributing column's ΔC is strictly
		// increasing in m, so each removal strictly lowers the net's spend.
		best := -1
		bestCost := 0.0
		for k, m := range a {
			cv := &in.Columns[k]
			if m <= 0 || cv.DeltaC == nil || (cv.NetLow != net && cv.NetHigh != net) {
				continue
			}
			mc := cv.costAt(m) - cv.costAt(m-1)
			if best < 0 || mc > bestCost {
				best, bestCost = k, mc
			}
		}
		if best < 0 {
			// Over budget with no removable contributor: the caps are
			// unsatisfiable for this incumbent shape; give up.
			return true, false
		}
		charge(best, a[best], -1)
		a[best]--
		charge(best, a[best], 1)
		deficit++
	}
	// Refill the deficit cheapest-marginal-first into columns whose next
	// feature fits under every capped net (free columns cost 0 and touch no
	// capped net, so they absorb deficit first).
	for ; deficit > 0; deficit-- {
		best := -1
		bestCost := 0.0
		for k, m := range a {
			cv := &in.Columns[k]
			if m >= cv.MaxM {
				continue
			}
			if cv.DeltaC != nil {
				dc := cv.DeltaC[m+1] - cv.DeltaC[m]
				if r := ids[2*k]; r >= 0 && spend[r]+dc*cv.REffLow > budget[r] {
					continue
				}
				if r := ids[2*k+1]; r >= 0 && spend[r]+dc*cv.REffHigh > budget[r] {
					continue
				}
			}
			mc := cv.costAt(m+1) - cv.costAt(m)
			if best < 0 || mc < bestCost {
				best, bestCost = k, mc
			}
		}
		if best < 0 {
			return true, false
		}
		charge(best, a[best], -1)
		a[best]++
		charge(best, a[best], 1)
	}
	return true, true
}

// SolveILPII is the paper's ILP-II: BuildILPII's program solved to proven
// optimality. The (cap-repaired) marginal-greedy incumbent is first checked
// against the hull bound; a certified tile returns it with an Optimal
// solution of zero nodes and pivots, any other tile is branched warm-started
// with it.
func SolveILPII(in *Instance, opts *ilp.Options, netCap *NetCap) (Assignment, *ilp.Solution, error) {
	sc := NewSolveScratch()
	a := make(Assignment, len(in.Columns))
	sol, _, err := sc.solveILPII(context.Background(), in, netCap, a, func() *ilp.Options { return sc.withOpts(opts) })
	return oneOff(a, sol, err)
}

// solveILPI solves ILP-I on the scratch's searcher, writing the assignment
// into a (zeroed, length == columns). opts is mutated (Incumbent/WarmStart)
// — it is the scratch's per-tile options copy. The returned solution is
// searcher-owned, nil for a trivial instance or a solver error.
func (sc *SolveScratch) solveILPI(in *Instance, opts *ilp.Options, a Assignment) (*ilp.Solution, error) {
	p, inc := sc.buildILPI(in)
	if p == nil {
		return nil, nil
	}
	// The solver validates the incumbent itself, so the heuristic one is
	// passed without re-checking.
	opts.Incumbent = inc
	// The greedy incumbent IS the relaxation's optimal vertex for ILP-I's
	// linear objective, so warm-starting the node LPs from it pays off.
	opts.WarmStart = true
	sol, err := sc.searcher.Solve(p, opts)
	if err != nil {
		return nil, fmt.Errorf("core: ILP-I: %w", err)
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return sol, fmt.Errorf("core: ILP-I: solver returned %v", sol.Status)
	}
	for i := range a {
		a[i] = int(sol.X[i] + 0.5)
	}
	return sol, nil
}

// solveILPII solves ILP-II on the scratch, writing the assignment into a
// (zeroed, length == columns). It runs the hull sweep, writes the
// (cap-repaired) marginal-greedy incumbent into a and accepts it when the
// hull bound proves it optimal under the searcher's own root-prune rule;
// otherwise it branches (branchILPII). On a convex tile the hull sweep is
// the incumbent, so it is swept once, and unless a cap repair changed it
// its cost is the bound bit for bit: it certifies without hullCertifies.
// bnbOpts supplies the per-tile B&B options and is called only when the
// tile branches. The returned solution is searcher-owned, nil for a trivial
// or certified tile or a solver error; st carries the search effort and the
// warm-start repair outcome, which stays set when the search fails.
func (sc *SolveScratch) solveILPII(ctx context.Context, in *Instance, netCap *NetCap, a Assignment, bnbOpts func() *ilp.Options) (*ilp.Solution, solveStats, error) {
	var st solveStats
	if len(in.Columns) == 0 || in.F == 0 {
		return nil, st, nil
	}
	hull, convex, err := sc.hullSweep(ctx, in)
	if err != nil {
		return nil, st, err
	}
	var sweep Assignment
	if convex {
		sweep = hull
	}
	st.incRepaired, st.incDropped = sc.ilpiiIncumbent(in, netCap, a, sweep)
	if !st.incDropped && hull != nil && (convex && !st.incRepaired || sc.hullCertifies(in, a, hull)) {
		return nil, st, nil
	}
	sol, err := sc.branchILPII(in, netCap, a, &st, bnbOpts())
	return sol, st, err
}

// branchILPII builds the ILP-II program around the incumbent in a (none
// when st records it dropped), runs branch-and-bound under opts and decodes
// the optimum into a, recording the search effort in st.
func (sc *SolveScratch) branchILPII(in *Instance, netCap *NetCap, a Assignment, st *solveStats, opts *ilp.Options) (*ilp.Solution, error) {
	inc := a
	if st.incDropped {
		inc = nil
	}
	g := sc.buildILPII(in, netCap, inc)
	opts.Incumbent = g.Incumbent
	sol, err := sc.searcher.Solve(g.P, opts)
	if err != nil {
		return nil, fmt.Errorf("core: ILP-II: %w", err)
	}
	st.nodes, st.pivots = sol.Nodes, sol.LPPivots
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return sol, fmt.Errorf("core: ILP-II: solver returned %v", sol.Status)
	}
	g.decodeInto(a, sol.X)
	return sol, nil
}
