package core

import (
	"context"
	"fmt"
	"sort"

	"pilfill/internal/density"
)

// This file implements the paper's companion formulation sketched in its
// Section 4 footnote and Section 7: MVDC — *minimum variation with delay
// constraint* — and the per-net "budgeted capacitance" flow.
//
// MVDC inverts MDFC: instead of fixing the fill amount and minimizing delay,
// it fixes a per-tile delay budget and maximizes density uniformity within
// it. The key observation making this tractable is that each tile's
// delay-versus-fill frontier is the marginal-greedy pick sequence: cost
// curves are convex and separable, so the cheapest way to place f features
// is always the first f picks of the marginal greedy, and the largest
// affordable f is where the accumulated cost crosses the budget.

// FillFrontier is a tile's optimal delay-versus-fill trade-off: Picks[i] is
// the column receiving the (i+1)-th feature and Cost[i] the accumulated
// optimization cost after placing it.
type FillFrontier struct {
	Picks []int
	Cost  []float64
}

// Frontier computes the optimal fill frontier of an instance by recording
// the marginal-greedy pick sequence up to the tile's full capacity.
func Frontier(in *Instance) *FillFrontier {
	f := &FillFrontier{}
	all := *in
	all.F = in.TotalCapacity()
	NewSolveScratch().solveMarginalGreedy(make(Assignment, len(in.Columns)), &all, f)
	return f
}

// MaxFill returns the largest feature count whose optimal cost stays within
// the delay budget (in objective units, i.e. seconds or weighted seconds).
func (f *FillFrontier) MaxFill(budget float64) int {
	// Cost is non-decreasing (marginal costs are non-negative), so binary
	// search the crossing point.
	n := sort.Search(len(f.Cost), func(i int) bool { return f.Cost[i] > budget })
	return n
}

// MVDCResult reports a delay-constrained uniformity maximization.
type MVDCResult struct {
	Result      *Result
	Budget      density.Budget // features per tile actually used
	AchievedMin float64        // minimum window density reached
	TileBudgetS float64        // the per-tile delay budget applied
}

// RunMVDCContext solves the minimum-variation-with-delay-constraint
// problem: every tile may add at most tileDelayBudget (seconds, in the
// configured objective) of delay impact; within that constraint the minimum
// window density is pushed as high as possible (toward targetMin, bounded
// above by maxDensity). Placement within each tile follows that tile's
// optimal fill frontier, so the delay spent for any fill amount is minimal.
// The context is checked at every tile boundary of both the
// frontier-construction and placement passes, so a cancelled or
// deadline-expired context stops the work and returns an error wrapping
// ctx.Err().
func (e *Engine) RunMVDCContext(ctx context.Context, grid *density.Grid, tileDelayBudget, targetMin, maxDensity float64) (*MVDCResult, error) {
	if tileDelayBudget < 0 {
		return nil, fmt.Errorf("core: negative delay budget %g", tileDelayBudget)
	}
	if targetMin <= 0 {
		return nil, fmt.Errorf("core: MVDC target %g", targetMin)
	}

	// Per-tile frontiers at full capacity and the fill each affords.
	capacity := make(density.Budget, e.Dis.NX)
	capped := make([][]int, e.Dis.NX)
	for i := range capacity {
		capacity[i] = make([]int, e.Dis.NY)
		capped[i] = make([]int, e.Dis.NY)
		for j := range capacity[i] {
			capacity[i][j] = e.Tiles[i][j].TotalCapacity()
		}
	}
	full, err := e.Instances(capacity)
	if err != nil {
		return nil, err
	}
	for _, in := range full {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: MVDC interrupted: %w", err)
		}
		capped[in.I][in.J] = Frontier(in).MaxFill(tileDelayBudget)
	}

	// Budget for uniformity under the capped slack.
	cappedGrid := &density.Grid{
		D:           grid.D,
		TileArea:    grid.TileArea,
		TileSlack:   capped,
		FeatureArea: grid.FeatureArea,
	}
	budget, achieved, err := density.MonteCarlo(cappedGrid, density.MonteCarloOptions{
		TargetMin:  targetMin,
		MaxDensity: maxDensity,
		Seed:       e.Cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: MVDC budgeting: %w", err)
	}

	// Place each tile's frontier prefix: MarginalGreedy at F = n is exactly
	// the frontier's first n picks.
	var prefix []*Instance
	for _, in := range full {
		if n := budget[in.I][in.J]; n > 0 {
			p := *in
			p.F = n
			prefix = append(prefix, &p)
		}
	}
	res, err := e.run(ctx, MarginalGreedy, prefix, nil)
	if err != nil {
		return nil, err
	}
	return &MVDCResult{
		Result:      res,
		Budget:      budget,
		AchievedMin: achieved,
		TileBudgetS: tileDelayBudget,
	}, nil
}

// NetBudgets derives per-net added-delay budgets from the baseline timing:
// each net may absorb `fraction` of its worst baseline Elmore sink delay —
// the stand-in for slack-derived capacitance budgets that place-and-route
// tools would supply (the paper's Section 7 flow). Nets get a budget of at
// least minBudget seconds so zero-delay stubs are not frozen entirely.
func (e *Engine) NetBudgets(fraction, minBudget float64) []float64 {
	out := make([]float64, len(e.Analyses))
	for i, a := range e.Analyses {
		worst := 0.0
		for _, d := range a.SinkDelays {
			if d > worst {
				worst = d
			}
		}
		b := worst * fraction
		if b < minBudget {
			b = minBudget
		}
		out[i] = b
	}
	return out
}

// RunBudgetedContext places the instances with ILP-II under per-net delay
// budgets: each net's total added unweighted delay within a tile is bounded
// by its budget divided evenly across the tiles it borders (a conservative
// split, since budgets are per net but tiles are solved independently). Every
// budget must be positive. Tiles the caps make infeasible fall back to the
// budget-respecting greedy, placing as much as fits, so Placed may trail
// Requested. Cancellation follows RunContext's contract: a cancelled
// context aborts the run and never triggers the greedy fallback.
func (e *Engine) RunBudgetedContext(ctx context.Context, instances []*Instance, netBudgets []float64) (*Result, error) {
	if len(netBudgets) != len(e.L.Nets) {
		return nil, fmt.Errorf("core: %d net budgets for %d nets", len(netBudgets), len(e.L.Nets))
	}
	for n, b := range netBudgets {
		if !(b > 0) {
			return nil, fmt.Errorf("core: net %q: delay budget %g is not positive", e.L.Nets[n].Name, b)
		}
	}
	// Count bordering tiles per net to split the budgets.
	tilesPerNet := make([]int, len(netBudgets))
	for _, in := range instances {
		seen := map[int]bool{}
		for k := range in.Columns {
			cv := &in.Columns[k]
			if cv.NetLow >= 0 {
				seen[cv.NetLow] = true
			}
			if cv.NetHigh >= 0 {
				seen[cv.NetHigh] = true
			}
		}
		for n := range seen {
			tilesPerNet[n]++
		}
	}
	perTile := make([]float64, len(netBudgets))
	for n, b := range netBudgets {
		if tilesPerNet[n] > 0 {
			perTile[n] = b / float64(tilesPerNet[n])
		} else {
			perTile[n] = b
		}
	}
	return e.run(ctx, ILPII, instances, &NetCap{PerNet: perTile})
}
