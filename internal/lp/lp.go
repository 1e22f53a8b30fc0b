// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  a_i·x  (<=|=|>=)  b_i     for each constraint i
//	            Lower[j] <= x_j <= Upper[j]
//
// Per-variable bounds are handled natively by the bounded-variable simplex
// method: a nonbasic variable may sit at either of its bounds, and an
// iteration is allowed to be a "bound flip" — moving a nonbasic variable
// from one bound to the other without changing the basis. This keeps the
// tableau at (#constraints) rows regardless of how many variables carry
// bounds; the branch-and-bound solver in package ilp depends on this to
// branch by changing a bound instead of appending a constraint row.
//
// Pivoting uses Dantzig's most-negative-reduced-cost rule for speed, with
// two safeguards: a crash basis that seats singleton structural columns in
// place of phase-1 artificials (the fill ILPs' Σ m_{k,n} = 1 rows all crash,
// skipping most of phase 1), and a fall-back to Bland's smallest-index rule
// whenever the objective stalls for a full sweep — Bland's rule cannot
// cycle, so termination is guaranteed; once the objective moves again,
// pricing returns to Dantzig.
//
// A Workspace may be reused across solves to amortize tableau allocation —
// the branch-and-bound search in package ilp solves hundreds of closely
// related LPs and reuses one Workspace for all of them.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // a·x <= b
	GE           // a·x >= b
	EQ           // a·x == b
)

// String returns the conventional symbol for the operator.
func (op Op) String() string {
	switch op {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Constraint is a single linear row a·x Op b. Coeffs may be shorter than the
// problem's variable count; missing entries are zero.
type Constraint struct {
	Coeffs []float64
	Op     Op
	RHS    float64
}

// Problem is a linear program over NumVars bounded variables.
type Problem struct {
	NumVars     int
	Objective   []float64 // minimized; may be shorter than NumVars (zeros)
	Constraints []Constraint

	// Lower and Upper are optional per-variable bounds; entries beyond the
	// slice length default to 0 and +Inf respectively. An explicit
	// Upper[j] == 0 (with the default lower bound) fixes the variable at
	// zero; use math.Inf(1) for "no upper bound". Lower bounds must be
	// finite. A variable whose upper bound is below its lower bound makes
	// the problem Infeasible (reported via Solution.Status, not an error,
	// so branch-and-bound can create empty bound boxes freely).
	Lower []float64
	Upper []float64
}

func (p *Problem) lowerOf(j int) float64 {
	if j < len(p.Lower) {
		return p.Lower[j]
	}
	return 0
}

func (p *Problem) upperOf(j int) float64 {
	if j < len(p.Upper) {
		return p.Upper[j]
	}
	return math.Inf(1)
}

// Status describes the outcome of a solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution holds the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64 // length NumVars; valid only when Status == Optimal
	Objective float64   // c·x at the optimum
	Pivots    int       // simplex iterations (pivots and bound flips), both phases

	// ReducedCosts holds the optimal reduced cost of every structural
	// variable, oriented for x: a positive entry means the variable is
	// nonbasic at its lower bound, a negative entry nonbasic at its upper
	// bound, and ~0 basic (or degenerate). Valid only when Status ==
	// Optimal. Branch-and-bound uses these for bound tightening against an
	// incumbent objective.
	ReducedCosts []float64
}

const eps = 1e-9

// fixedTol is the bound range below which a variable is treated as fixed at
// its lower bound and excluded from pivoting entirely.
const fixedTol = 1e-12

// maxPivots caps the total pivot count as a safety net; Bland's rule cannot
// cycle, so hitting this indicates a malformed (e.g. NaN-laden) problem.
const maxPivots = 2_000_000

// ErrNumeric is returned when the tableau degenerates (NaN/Inf) or the pivot
// budget is exhausted.
var ErrNumeric = errors.New("lp: numeric failure or pivot limit exceeded")

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: NumVars = %d, need >= 1", p.NumVars)
	}
	if len(p.Objective) > p.NumVars {
		return fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.Objective), p.NumVars)
	}
	if len(p.Lower) > p.NumVars || len(p.Upper) > p.NumVars {
		return fmt.Errorf("lp: bound vectors longer than %d variables", p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) > p.NumVars {
			return fmt.Errorf("lp: constraint %d has %d coefficients for %d variables", i, len(c.Coeffs), p.NumVars)
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has non-finite RHS %v", i, c.RHS)
		}
		for j, v := range c.Coeffs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: constraint %d coefficient %d is non-finite", i, j)
			}
		}
	}
	for j, v := range p.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: objective coefficient %d is non-finite", j)
		}
	}
	for j, v := range p.Lower {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: lower bound %d is non-finite", j)
		}
	}
	for j, v := range p.Upper {
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return fmt.Errorf("lp: upper bound %d is NaN or -Inf", j)
		}
	}
	return nil
}

// Workspace holds the simplex working state so repeated solves (the
// branch-and-bound node LPs of package ilp) reuse one set of buffers instead
// of allocating a fresh tableau per call. A Workspace is not safe for
// concurrent use; the zero value is ready to use.
//
// Solve on a Workspace is allocation-free in the steady state: the returned
// Solution — including its X and ReducedCosts slices — is owned by the
// workspace and overwritten by the next Solve on it. Callers that need a
// solution to outlive the next solve must copy what they keep; the package
// level Solve uses a throwaway workspace and so has no such aliasing.
type Workspace struct {
	m, n     int         // constraint rows, structural variables
	cols     int         // total columns excluding RHS
	artStart int         // first artificial column index
	slab     []float64   // backing storage for rows
	rows     [][]float64 // m rows, each cols+1 wide (last = RHS)
	obj      []float64   // reduced-cost row, cols+1 wide (last = -objective value)
	basis    []int       // column basic in each row
	colUB    []float64   // bound range of each column's shifted variable (+Inf if none)
	flipped  []bool      // column currently represents range-minus-variable
	allowed  []bool      // eligible to enter the basis
	cost     []float64   // scratch phase cost vector
	rhs      []float64   // scratch shifted RHS per constraint
	neg      []bool      // scratch per-constraint sign normalization
	ops      []Op        // scratch normalized operator per constraint
	colRows  []int       // scratch per-variable constraint-occurrence count
	crash    []int       // scratch per-constraint crash column, -1 if none
	pivots   int
	x        []float64 // reusable Solution.X buffer
	rc       []float64 // reusable Solution.ReducedCosts buffer
	sol      Solution  // reusable Solution, overwritten per Solve
}

// Solve optimizes the problem with a throwaway workspace. The returned error
// is non-nil only for malformed problems or numeric breakdown; infeasibility
// and unboundedness are reported through Solution.Status.
func Solve(p *Problem) (*Solution, error) {
	var ws Workspace
	return ws.Solve(p)
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growOp(s []Op, n int) []Op {
	if cap(s) < n {
		return make([]Op, n)
	}
	return s[:n]
}

// result stores sol in the workspace's reusable Solution and returns it.
func (ws *Workspace) result(sol Solution) (*Solution, error) {
	ws.sol = sol
	return &ws.sol, nil
}

// Solve optimizes the problem reusing the workspace's buffers. The returned
// Solution (and its X/ReducedCosts slices) is workspace-owned and valid only
// until the next Solve on this workspace; see the Workspace doc.
func (ws *Workspace) Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// An empty bound box short-circuits to Infeasible without a tableau.
	for j := 0; j < p.NumVars; j++ {
		if p.upperOf(j) < p.lowerOf(j)-eps {
			return ws.result(Solution{Status: Infeasible})
		}
	}
	ws.init(p)

	// Phase 1: minimize the sum of artificial variables.
	for j := range ws.cost {
		ws.cost[j] = 0
	}
	for j := ws.artStart; j < ws.cols; j++ {
		ws.cost[j] = 1
	}
	ws.setObjective(ws.cost)
	if err := ws.optimize(); err != nil {
		if errors.Is(err, errUnbounded) {
			// The phase-1 objective is bounded below by zero; an unbounded
			// ray here is numeric breakdown.
			return nil, ErrNumeric
		}
		return nil, err
	}
	if ws.objectiveValue() > 1e-7 {
		return ws.result(Solution{Status: Infeasible, Pivots: ws.pivots})
	}
	if err := ws.driveOutArtificials(); err != nil {
		return nil, err
	}
	for j := ws.artStart; j < ws.cols; j++ {
		ws.allowed[j] = false
	}

	// Phase 2: minimize the real objective, oriented for any columns phase 1
	// left complemented (flipped columns carry the negated cost).
	for j := range ws.cost {
		ws.cost[j] = 0
	}
	copy(ws.cost, p.Objective)
	for j := 0; j < ws.n; j++ {
		if ws.flipped[j] {
			ws.cost[j] = -ws.cost[j]
		}
	}
	ws.setObjective(ws.cost)
	if err := ws.optimize(); err != nil {
		if errors.Is(err, errUnbounded) {
			return ws.result(Solution{Status: Unbounded, Pivots: ws.pivots})
		}
		return nil, err
	}

	// Extract x: nonbasic variables sit at the bound their orientation
	// encodes, basic variables at lower-bound-plus-tableau-value.
	ws.x = growF(ws.x, p.NumVars)
	x := ws.x
	for j := 0; j < ws.n; j++ {
		if ws.flipped[j] {
			x[j] = p.lowerOf(j) + ws.colUB[j]
		} else {
			x[j] = p.lowerOf(j)
		}
	}
	for i, b := range ws.basis {
		if b < ws.n {
			y := ws.rows[i][ws.cols]
			if ws.flipped[b] {
				x[b] = p.lowerOf(b) + ws.colUB[b] - y
			} else {
				x[b] = p.lowerOf(b) + y
			}
		}
	}
	// Clamp tiny bound violations so downstream rounding is clean.
	for j := range x {
		if lo := p.lowerOf(j); x[j] < lo && x[j] > lo-1e-7 {
			x[j] = lo
		}
		if hi := p.upperOf(j); x[j] > hi && x[j] < hi+1e-7 {
			x[j] = hi
		}
	}
	objective := 0.0
	for j, c := range p.Objective {
		objective += c * x[j]
	}
	ws.rc = growF(ws.rc, p.NumVars)
	rc := ws.rc
	for j := 0; j < ws.n; j++ {
		if ws.flipped[j] {
			rc[j] = -ws.obj[j]
		} else {
			rc[j] = ws.obj[j]
		}
	}
	return ws.result(Solution{
		Status:       Optimal,
		X:            x,
		Objective:    objective,
		Pivots:       ws.pivots,
		ReducedCosts: rc,
	})
}

var errUnbounded = errors.New("lp: unbounded")

// init builds the initial tableau into the workspace buffers: variables are
// shifted by their lower bounds (so every shifted variable ranges over
// [0, upper-lower]), slack/surplus and artificial columns are appended, and
// the starting basis is all slacks and artificials.
func (ws *Workspace) init(p *Problem) {
	m := len(p.Constraints)
	n := p.NumVars

	// Pass 0: count how many constraint rows each structural variable
	// appears in, to recognize singleton columns for the crash basis below.
	ws.colRows = growI(ws.colRows, n)
	for j := range ws.colRows {
		ws.colRows[j] = 0
	}
	for _, c := range p.Constraints {
		for j, v := range c.Coeffs {
			if v != 0 {
				ws.colRows[j]++
			}
		}
	}

	// Pass 1: shift RHS by the lower bounds, normalize signs, and count the
	// slack and artificial columns each row needs. After normalization:
	//   LE rows get +slack (slack basic, no artificial needed),
	//   GE rows get -surplus and an artificial,
	//   EQ rows get an artificial.
	// A GE/EQ row whose only use of some variable is a singleton column with
	// a feasible basic value crashes that column into the basis instead of
	// an artificial, so phase 1 never has to pivot it out. The fill ILPs'
	// Σ_n m_{k,n} = 1 rows all qualify via their zero-count indicator.
	ws.rhs = growF(ws.rhs, m)
	ws.neg = growB(ws.neg, m)
	ws.ops = growOp(ws.ops, m)
	ws.crash = growI(ws.crash, m)
	slackCount, artCount := 0, 0
	for i, c := range p.Constraints {
		b := c.RHS
		if len(p.Lower) > 0 {
			for j, v := range c.Coeffs {
				if v == 0 {
					continue
				}
				if lo := p.lowerOf(j); lo != 0 {
					b -= v * lo
				}
			}
		}
		op := c.Op
		neg := b < 0
		if neg {
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		ws.rhs[i], ws.neg[i], ws.ops[i] = b, neg, op
		ws.crash[i] = -1
		if op == GE || op == EQ {
			for j, v := range c.Coeffs {
				if v == 0 || ws.colRows[j] != 1 {
					continue
				}
				a := v
				if neg {
					a = -a
				}
				if a <= eps {
					continue
				}
				rng := p.upperOf(j) - p.lowerOf(j)
				if rng <= fixedTol || b/a > rng {
					continue
				}
				ws.crash[i] = j
				break
			}
		}
		switch op {
		case LE:
			slackCount++
		case GE:
			slackCount++
			if ws.crash[i] < 0 {
				artCount++
			}
		case EQ:
			if ws.crash[i] < 0 {
				artCount++
			}
		}
	}

	cols := n + slackCount + artCount
	ws.m, ws.n, ws.cols = m, n, cols
	ws.artStart = n + slackCount
	ws.pivots = 0

	stride := cols + 1
	ws.slab = growF(ws.slab, m*stride)
	for i := range ws.slab {
		ws.slab[i] = 0
	}
	if cap(ws.rows) < m {
		ws.rows = make([][]float64, m)
	}
	ws.rows = ws.rows[:m]
	ws.obj = growF(ws.obj, stride)
	ws.basis = growI(ws.basis, m)
	ws.colUB = growF(ws.colUB, cols)
	ws.flipped = growB(ws.flipped, cols)
	ws.allowed = growB(ws.allowed, cols)
	ws.cost = growF(ws.cost, cols)
	for j := 0; j < cols; j++ {
		ws.flipped[j] = false
		if j < n {
			ws.colUB[j] = p.upperOf(j) - p.lowerOf(j)
			// Fixed variables (range ~0) never pivot; they stay at their
			// lower bound and are excluded from entering the basis.
			ws.allowed[j] = ws.colUB[j] > fixedTol
		} else {
			ws.colUB[j] = math.Inf(1)
			ws.allowed[j] = true
		}
	}

	// Pass 2: fill the rows.
	slackIdx, artIdx := n, ws.artStart
	for i, c := range p.Constraints {
		row := ws.slab[i*stride : (i+1)*stride]
		ws.rows[i] = row
		if ws.neg[i] {
			for j, v := range c.Coeffs {
				row[j] = -v
			}
		} else {
			copy(row, c.Coeffs)
		}
		row[cols] = ws.rhs[i]
		switch ws.ops[i] {
		case LE:
			row[slackIdx] = 1
			ws.basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			if j := ws.crash[i]; j >= 0 {
				ws.crashRow(i, j)
			} else {
				row[artIdx] = 1
				ws.basis[i] = artIdx
				artIdx++
			}
		case EQ:
			if j := ws.crash[i]; j >= 0 {
				ws.crashRow(i, j)
			} else {
				row[artIdx] = 1
				ws.basis[i] = artIdx
				artIdx++
			}
		}
	}
}

// crashRow scales constraint row i so its singleton column j has unit
// coefficient and seats j directly in the basis, standing in for the
// artificial the row would otherwise need. Column j is zero in every other
// row (it is a singleton), so no elimination is required.
func (ws *Workspace) crashRow(i, j int) {
	row := ws.rows[i]
	if a := row[j]; a != 1 {
		inv := 1 / a
		for k := 0; k <= ws.cols; k++ {
			row[k] *= inv
		}
		row[j] = 1
	}
	ws.basis[i] = j
}

// setObjective installs cost vector c (length cols) as the reduced-cost row
// consistent with the current basis: obj[j] = c_j - Σ_i c_B(i)·T[i][j].
func (ws *Workspace) setObjective(c []float64) {
	obj := ws.obj
	for j := range obj {
		obj[j] = 0
	}
	copy(obj, c)
	for i, b := range ws.basis {
		cb := 0.0
		if b < len(c) {
			cb = c[b]
		}
		if cb == 0 {
			continue
		}
		row := ws.rows[i]
		for j := 0; j <= ws.cols; j++ {
			obj[j] -= cb * row[j]
		}
	}
}

// objectiveValue returns the current value of the installed objective.
func (ws *Workspace) objectiveValue() float64 { return -ws.obj[ws.cols] }

// optimize pivots until no improving column remains. Pricing is Dantzig's
// most-negative-reduced-cost rule, extended to bounded variables (an
// iteration is either a basis exchange or a bound flip of the entering
// column). If the objective fails to improve for stallLimit consecutive
// iterations — a degenerate plateau where Dantzig could cycle — pricing
// switches to Bland's smallest-index rule, which provably terminates;
// the first real improvement switches back.
func (ws *Workspace) optimize() error {
	stallLimit := ws.m + ws.cols + 16
	stall := 0
	lastObj := math.Inf(1)
	for {
		enter := -1
		if stall > stallLimit {
			for j := 0; j < ws.cols; j++ {
				if ws.allowed[j] && ws.obj[j] < -eps {
					enter = j
					break
				}
			}
		} else {
			best := -eps
			for j := 0; j < ws.cols; j++ {
				if ws.allowed[j] && ws.obj[j] < best {
					best = ws.obj[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return nil
		}
		// Ratio test over three limits: a basic variable dropping to zero
		// (positive column entry), a basic variable climbing to its upper
		// bound (negative entry, finite bound), or the entering variable
		// reaching its own opposite bound (a bound flip, no pivot).
		leave := -1
		leaveUpper := false
		bestRatio := math.Inf(1)
		for i := 0; i < ws.m; i++ {
			a := ws.rows[i][enter]
			var ratio float64
			var hitsUpper bool
			if a > eps {
				ratio = ws.rows[i][ws.cols] / a
			} else if a < -eps {
				ub := ws.colUB[ws.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				ratio = (ub - ws.rows[i][ws.cols]) / -a
				hitsUpper = true
			} else {
				continue
			}
			if ratio < bestRatio-eps ||
				(ratio < bestRatio+eps && (leave < 0 || ws.basis[i] < ws.basis[leave])) {
				bestRatio = ratio
				leave = i
				leaveUpper = hitsUpper
			}
		}
		entUB := ws.colUB[enter]
		if leave < 0 || entUB < bestRatio-eps {
			if math.IsInf(entUB, 1) {
				return errUnbounded
			}
			if err := ws.flipColumn(enter); err != nil {
				return err
			}
		} else {
			if leaveUpper {
				ws.complementBasic(leave)
			}
			if err := ws.pivot(leave, enter); err != nil {
				return err
			}
		}
		if v := ws.objectiveValue(); v < lastObj-eps*(1+math.Abs(lastObj)) {
			lastObj = v
			stall = 0
		} else {
			stall++
		}
	}
}

// flipColumn moves nonbasic column j from its current bound to the opposite
// one by complementing the column: the shifted variable y becomes range-y, so
// the column negates and every basic value absorbs the step.
func (ws *Workspace) flipColumn(j int) error {
	ws.pivots++
	if ws.pivots > maxPivots {
		return ErrNumeric
	}
	ub := ws.colUB[j]
	for i := 0; i < ws.m; i++ {
		row := ws.rows[i]
		if a := row[j]; a != 0 {
			row[ws.cols] -= a * ub
			row[j] = -a
		}
	}
	d := ws.obj[j]
	ws.obj[ws.cols] -= d * ub
	ws.obj[j] = -d
	ws.flipped[j] = !ws.flipped[j]
	return nil
}

// complementBasic re-orients the basic variable of row i around its upper
// bound so a subsequent pivot makes it leave the basis at that bound. Only
// the row itself changes: in a proper tableau the basic column is zero
// everywhere else (including the reduced-cost row).
func (ws *Workspace) complementBasic(i int) {
	j0 := ws.basis[i]
	ub := ws.colUB[j0]
	row := ws.rows[i]
	for j := 0; j <= ws.cols; j++ {
		row[j] = -row[j]
	}
	row[j0] = 1
	row[ws.cols] += ub
	ws.flipped[j0] = !ws.flipped[j0]
}

// pivot makes column enter basic in row leave.
func (ws *Workspace) pivot(leave, enter int) error {
	ws.pivots++
	if ws.pivots > maxPivots {
		return ErrNumeric
	}
	prow := ws.rows[leave]
	pval := prow[enter]
	if math.Abs(pval) < eps || math.IsNaN(pval) {
		return ErrNumeric
	}
	inv := 1 / pval
	for j := 0; j <= ws.cols; j++ {
		prow[j] *= inv
	}
	prow[enter] = 1 // cancel roundoff exactly on the pivot element
	for i := 0; i < ws.m; i++ {
		if i == leave {
			continue
		}
		row := ws.rows[i]
		f := row[enter]
		if f == 0 {
			continue
		}
		for j := 0; j <= ws.cols; j++ {
			row[j] -= f * prow[j]
		}
		row[enter] = 0
	}
	f := ws.obj[enter]
	if f != 0 {
		for j := 0; j <= ws.cols; j++ {
			ws.obj[j] -= f * prow[j]
		}
		ws.obj[enter] = 0
	}
	ws.basis[leave] = enter
	return nil
}

// driveOutArtificials removes artificial variables from the basis after
// phase 1. A basic artificial at value 0 is swapped for any eligible
// non-artificial column with a nonzero entry in its row; if none exists the
// row is redundant and is left in place with the artificial pinned at zero.
func (ws *Workspace) driveOutArtificials() error {
	for i := 0; i < ws.m; i++ {
		if ws.basis[i] < ws.artStart {
			continue
		}
		swapped := false
		for j := 0; j < ws.artStart; j++ {
			if ws.allowed[j] && math.Abs(ws.rows[i][j]) > eps {
				if err := ws.pivot(i, j); err != nil {
					return err
				}
				swapped = true
				break
			}
		}
		if !swapped && ws.rows[i][ws.cols] > 1e-7 {
			// A redundant row must have zero RHS at a phase-1 optimum.
			return ErrNumeric
		}
	}
	return nil
}
