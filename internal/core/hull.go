package core

import (
	"context"
	"math"
)

// The hull bound that certifies ILP-II (DESIGN.md §13).
//
// Every tile program shares one structure: minimize a separable objective
// Σ_k c_k(m_k) subject to the single coupling budget row Σ_k m_k = F and the
// per-column box 0 <= m_k <= MaxM_k. Replacing each cost curve c_k by its
// lower convex hull ĉ_k (ĉ_k <= c_k pointwise) gives the convexified
// program, which the marginal sweep over the per-unit hull marginals solves
// exactly (the same sweep, and the same (delta, column) tie-break, as
// the marginal greedy). Its optimum Σ_k ĉ_k(a_k) is the root LP bound of
// uncapped ILP-II: the indicator formulation's LP relaxation is exactly the
// convexified program, and cap rows can only raise it. So it is a lower
// bound on every tile's integer optimum, and ILP-II returns its warm-start
// incumbent without branching whenever the incumbent's cost is within the
// searcher's own 1e-9 root-prune threshold of it (hullCertifies).
//
// Floating-fill cost curves are convex, so every integer point is a hull
// vertex, every hull edge is a unit step, and each hull marginal is the raw
// cost difference the marginal greedy sweeps, bit for bit. On such a tile
// the hull sweep is the marginal-greedy incumbent itself: ILP-II runs one
// sweep, and an incumbent no cap repair changed costs exactly the bound.
// Grounded-fill step curves can sit strictly above their hull; those tiles
// run the raw sweep as well and certify through hullCertifies.

// hullSweep builds every column's lower convex hull into the scratch's hull
// arenas and runs the marginal sweep over it, writing the convexified
// program's optimum into the scratch's hull assignment, which it returns.
// The bool reports that every column's hull kept all MaxM+1 points (the
// tile is convex), so the assignment is also the marginal-greedy one. A
// nil assignment means the total capacity is short of F: no bound exists,
// and the B&B path owns the infeasibility diagnosis. The assignment and the
// arenas (read by hullAt) stay valid until the next sweep on this scratch.
// The build polls the context once per column, the same granularity as
// solveDP's table fill; the only error is a cancelled context.
func (sc *SolveScratch) hullSweep(ctx context.Context, in *Instance) (Assignment, bool, error) {
	kn := len(in.Columns)
	sc.hullA = growZero(sc.hullA, kn)
	a := sc.hullA
	total := 0
	for k := range in.Columns {
		total += in.Columns[k].MaxM + 1
	}
	// Arenas sized for this tile; contents are fully overwritten per column.
	sc.hullMarg = grow(sc.hullMarg, total)
	sc.hullVert = grow(sc.hullVert, total)
	sc.hullOff = grow(sc.hullOff, kn)
	marg, vert, off := sc.hullMarg, sc.hullVert, sc.hullOff

	// Per-column lower convex hulls (monotone chain over m ascending),
	// expanded into per-unit convexified marginals. marg[off_k+m] is the
	// hull slope covering the step m−1 → m — non-decreasing in m by
	// convexity of the hull — and vert flags the integer points lying ON
	// the hull, where ĉ_k(m) == c_k(m) exactly.
	convex := true
	pos := 0
	for k := range in.Columns {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		cv := &in.Columns[k]
		off[k] = pos
		n := cv.MaxM
		if cv.CostExact == nil {
			// Free column: the cost curve is identically zero, so every
			// integer point is a hull vertex with zero marginals.
			for i := 0; i <= n; i++ {
				marg[pos+i] = 0
				vert[pos+i] = true
			}
			pos += n + 1
			continue
		}
		hull := sc.hullStack[:0]
		for m := 0; m <= n; m++ {
			cm := cv.costAt(m)
			for len(hull) >= 2 {
				i, j := int(hull[len(hull)-2]), int(hull[len(hull)-1])
				// Pop j when it lies strictly above the chord i→m, i.e.
				// slope(i,j) > slope(j,m), compared by cross product so no
				// division enters. Collinear points are kept: they are on
				// the hull, and keeping them preserves the exact cost value
				// at every kept point for the certificate.
				if (cv.costAt(j)-cv.costAt(i))*float64(m-j) > (cm-cv.costAt(j))*float64(j-i) {
					hull = hull[:len(hull)-1]
				} else {
					break
				}
			}
			hull = append(hull, int32(m))
		}
		// A popped point never returns, so a hull of n+1 points is a curve
		// that never lost one: every edge is a unit step.
		convex = convex && len(hull) == n+1
		for i := 0; i <= n; i++ {
			vert[pos+i] = false
		}
		marg[pos] = 0
		for e := 1; e < len(hull); e++ {
			i, j := int(hull[e-1]), int(hull[e])
			// For unit edges (every edge of a convex curve) the division is
			// by exactly 1.0, so the marginal is bit-equal to the plain
			// cost difference the marginal greedy uses.
			s := (cv.costAt(j) - cv.costAt(i)) / float64(j-i)
			for m := i + 1; m <= j; m++ {
				marg[pos+m] = s
			}
		}
		for _, v := range hull {
			vert[pos+int(v)] = true
		}
		sc.hullStack = hull
		pos += n + 1
	}

	// Within a column the hull marginals are non-decreasing, so the swept
	// deltas form a non-decreasing sequence and the first F of them are the
	// convexified program's optimum.
	placed, err := sc.sweep(ctx, in, a, marg, off, nil)
	if err != nil {
		return nil, false, err
	}
	if placed < in.F {
		return nil, false, nil
	}
	return a, convex, nil
}

// hullAt returns ĉ_k(m), column k's convexified cost at m from the last
// hullSweep. On a hull vertex it is the original cost value itself (no
// arithmetic); off a vertex it interpolates from the nearest vertex below
// along the covering hull edge.
func (sc *SolveScratch) hullAt(in *Instance, k, m int) float64 {
	cv := &in.Columns[k]
	o := sc.hullOff[k]
	if sc.hullVert[o+m] {
		return cv.costAt(m)
	}
	v := m - 1
	for !sc.hullVert[o+v] {
		v--
	}
	return cv.costAt(v) + sc.hullMarg[o+m]*float64(m-v)
}

// hullCertifies reports whether the hull bound of the sweep assignment hull
// proves the cap-feasible incumbent inc optimal for the ILP-II program,
// under the branch-and-bound searcher's own root-prune rule
// (n.lower >= best − 1e-9 on normalize's scale). The hull bound Σ_k ĉ_k(hull_k)
// is the optimum of the convexified program, which is exactly the root LP
// bound of the uncapped indicator formulation; cap rows can only raise the
// LP bound. So a pass means the searcher would have pruned at the root and
// returned the validated incumbent itself: the fill is the B&B's by
// construction (DESIGN.md §13).
func (sc *SolveScratch) hullCertifies(in *Instance, inc, hull Assignment) bool {
	cost, bound, scale := 0.0, 0.0, 0.0
	for k := range in.Columns {
		cv := &in.Columns[k]
		cost += cv.costAt(inc[k])
		bound += sc.hullAt(in, k, hull[k])
		if cv.CostExact != nil {
			for m := 0; m <= cv.MaxM; m++ {
				scale = max(scale, math.Abs(cv.costAt(m)))
			}
		}
	}
	if scale == 0 {
		scale = 1 // normalize leaves an all-zero objective unscaled
	}
	return (cost-bound)/scale < 1e-9
}
