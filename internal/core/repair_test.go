package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"pilfill/internal/ilp"
	"pilfill/internal/scanline"
)

// repairInstance is a hand-built tile where the marginal-greedy incumbent
// must violate a per-net delay cap: column 0 is the cheapest in objective
// cost but spends heavily against net 0, column 1 is pricier but unbounded.
func repairInstance() *Instance {
	mkCol := func(maxM, net int, costPer, dcPer float64) ColumnVar {
		n := maxM + 1
		cost := make([]float64, n)
		dc := make([]float64, n)
		for m := 1; m < n; m++ {
			cost[m] = costPer * float64(m)
			dc[m] = dcPer * float64(m)
		}
		return ColumnVar{
			MaxM: maxM, CostExact: cost, DeltaC: dc,
			NetLow: net, NetHigh: -1, REffLow: 1, RLow: 1, LinearSlope: costPer,
		}
	}
	return &Instance{F: 4, Columns: []ColumnVar{
		mkCol(4, 0, 1e-16, 1e-15), // cheap, capped net
		mkCol(4, 1, 1e-15, 1e-15), // 10x cost, uncapped net
	}}
}

func TestRepairIncumbentRestoresFeasibility(t *testing.T) {
	in := repairInstance()
	// Net 0 may absorb 2e-15 s: greedy's all-four-in-column-0 spends 4e-15.
	nc := &NetCap{PerNet: []float64{2e-15, 1}}
	g := BuildILPII(in, nc)
	if g == nil {
		t.Fatal("trivial program")
	}
	if !g.IncumbentRepaired || g.IncumbentDropped {
		t.Fatalf("repaired=%v dropped=%v, want repaired", g.IncumbentRepaired, g.IncumbentDropped)
	}
	if g.Incumbent == nil {
		t.Fatal("repaired incumbent not encoded")
	}
	a := g.Decode(g.Incumbent)
	if err := in.Valid(a); err != nil {
		t.Fatalf("repaired incumbent invalid: %v", err)
	}
	// Exactly the expected repair: two features pushed off the capped net.
	if a[0] != 2 || a[1] != 2 {
		t.Errorf("repaired assignment %v, want [2 2]", a)
	}

	// The repaired incumbent must survive the solver's own validation: a
	// warm-started search proves optimality without branching on an instance
	// this small, and its answer respects the cap.
	sol, err := ilp.Solve(g.P, &ilp.Options{Incumbent: g.Incumbent})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ilp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	best := g.Decode(sol.X)
	if err := in.Valid(best); err != nil {
		t.Fatal(err)
	}
	spend := float64(best[0]) * 1e-15
	if spend > 2e-15+1e-21 {
		t.Errorf("solution spends %g on capped net", spend)
	}
}

func TestRepairIncumbentDropsWhenUnsatisfiable(t *testing.T) {
	in := repairInstance()
	in.Columns = in.Columns[:1] // only the capped column remains
	in.F = 2
	nc := &NetCap{PerNet: []float64{1e-18}}
	g := BuildILPII(in, nc)
	if g == nil {
		t.Fatal("trivial program")
	}
	if !g.IncumbentDropped {
		t.Error("unsatisfiable caps did not drop the incumbent")
	}
	if g.Incumbent != nil {
		t.Error("dropped incumbent still encoded")
	}
}

func TestRepairIncumbentNoChangeWhenFeasible(t *testing.T) {
	in := repairInstance()
	nc := &NetCap{PerNet: []float64{1, 1}} // generous: greedy already fits
	g := BuildILPII(in, nc)
	if g == nil {
		t.Fatal("trivial program")
	}
	if g.IncumbentRepaired || g.IncumbentDropped {
		t.Errorf("repaired=%v dropped=%v on a feasible incumbent", g.IncumbentRepaired, g.IncumbentDropped)
	}
	if g.Incumbent == nil {
		t.Error("feasible incumbent not encoded")
	}
}

// repairIncumbentRef is the pre-optimization reference implementation of
// repairIncumbent, kept verbatim (minus the scratch plumbing): the
// over-budget net is found by rescanning every column's two bounding nets on
// each shed pass. The regression test below pins the hoisted version to it.
func repairIncumbentRef(in *Instance, netCap *NetCap, a Assignment) (repaired, ok bool) {
	spend := map[int]float64{}
	capped := func(net int) bool { return net >= 0 && netCap.budgetFor(net) > 0 }
	charge := func(k, m int, sign float64) {
		cv := &in.Columns[k]
		if m <= 0 || cv.DeltaC == nil {
			return
		}
		dc := cv.DeltaC[m] * sign
		if capped(cv.NetLow) {
			spend[cv.NetLow] += dc * cv.REffLow
		}
		if capped(cv.NetHigh) {
			spend[cv.NetHigh] += dc * cv.REffHigh
		}
	}
	for k, m := range a {
		charge(k, m, 1)
	}
	overNet := func() int {
		worst := -1
		for k := range in.Columns {
			cv := &in.Columns[k]
			for _, net := range [2]int{cv.NetLow, cv.NetHigh} {
				if capped(net) && spend[net] > netCap.budgetFor(net) &&
					(worst < 0 || net < worst) {
					worst = net
				}
			}
		}
		return worst
	}

	deficit := 0
	for {
		net := overNet()
		if net < 0 {
			break
		}
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
			return true, false
		}
		charge(best, a[best], -1)
		a[best]--
		charge(best, a[best], 1)
		deficit++
	}
	if deficit == 0 {
		return false, true
	}
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
				if capped(cv.NetLow) && spend[cv.NetLow]+dc*cv.REffLow > netCap.budgetFor(cv.NetLow) {
					continue
				}
				if capped(cv.NetHigh) && spend[cv.NetHigh]+dc*cv.REffHigh > netCap.budgetFor(cv.NetHigh) {
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

func TestRepairIncumbentMatchesReference(t *testing.T) {
	// The hoisted capped-net list must leave repair behavior bit-identical:
	// same repaired/ok verdicts and the same assignment, across random
	// instances whose marginal-greedy incumbents violate randomly tight caps.
	rng := rand.New(rand.NewSource(23))
	sc := NewSolveScratch()
	checked := 0
	for trial := 0; trial < 400; trial++ {
		in := synthInstance(rng, 2+rng.Intn(10))
		if in.F == 0 || len(in.Columns) == 0 {
			continue
		}
		inc := SolveMarginalGreedy(in)
		// Cap each net at a random fraction of what the incumbent spends on
		// it, so shed (and often refill or drop) paths all get exercised.
		spent := map[int]float64{}
		for k, m := range inc {
			cv := &in.Columns[k]
			if m <= 0 || cv.DeltaC == nil {
				continue
			}
			if cv.NetLow >= 0 {
				spent[cv.NetLow] += cv.DeltaC[m] * cv.REffLow
			}
			if cv.NetHigh >= 0 {
				spent[cv.NetHigh] += cv.DeltaC[m] * cv.REffHigh
			}
		}
		nc := &NetCap{PerNet: make([]float64, 3)}
		for net, s := range spent {
			nc.PerNet[net] = s * rng.Float64()
		}

		aNew := slices.Clone(inc)
		aRef := slices.Clone(inc)
		repNew, okNew := sc.repairIncumbent(in, nc, aNew)
		repRef, okRef := repairIncumbentRef(in, nc, aRef)
		if repNew != repRef || okNew != okRef {
			t.Fatalf("trial %d: verdict (repaired=%v ok=%v), reference (repaired=%v ok=%v)",
				trial, repNew, okNew, repRef, okRef)
		}
		if !slices.Equal(aNew, aRef) {
			t.Fatalf("trial %d: assignment %v, reference %v", trial, aNew, aRef)
		}
		if repNew {
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d trials actually repaired — caps not tight enough to regress anything", checked)
	}
}

func TestRunCountsRepairedIncumbents(t *testing.T) {
	// End to end through the engine: run translated copies of the
	// cap-violating pattern, so every tile's incumbent needs a repair. The
	// counters must show up in the Result and replay identically from the
	// memo on a warm run (the copies dedup to one solve).
	l, d := smallLayout(t)
	memo := NewSolveMemo()
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, NetCap: 2e-15, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	const tiles = 3
	instances := placeableRepairTiles(tiles)
	cold, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	if cold.IncumbentsRepaired != tiles {
		t.Errorf("cold run repaired %d incumbents, want %d", cold.IncumbentsRepaired, tiles)
	}
	if cold.MemoMisses != 1 || cold.MemoHits != tiles-1 {
		t.Errorf("cold run: %d misses %d hits, want 1 miss (pattern copies dedup)", cold.MemoMisses, cold.MemoHits)
	}
	warm, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	if warm.MemoHits != tiles {
		t.Errorf("warm run: %d hits over %d tiles", warm.MemoHits, tiles)
	}
	if warm.IncumbentsRepaired != cold.IncumbentsRepaired || warm.IncumbentsDropped != cold.IncumbentsDropped {
		t.Errorf("memo replay changed repair counters: %d/%d vs %d/%d",
			cold.IncumbentsRepaired, cold.IncumbentsDropped, warm.IncumbentsRepaired, warm.IncumbentsDropped)
	}
	requireResultsIdentical(t, "capped-memo", warm, cold)
}

// placeableRepairTiles returns n copies of repairInstance carrying the
// column geometry Run needs to place them: column k spans site rows 0–3 of
// grid column k, free in smallLayout, with the gap center below row 0, so
// place takes the rows bottom-up.
func placeableRepairTiles(n int) []*Instance {
	var instances []*Instance
	for i := 0; i < n; i++ {
		in := repairInstance()
		in.I = i
		for k := range in.Columns {
			in.Columns[k].Col = &scanline.Column{Col: k, RowHi: 4}
		}
		instances = append(instances, in)
	}
	return instances
}

// TestRunILPIIUnderPlacesInfeasibleCappedTile pins the capped-infeasible
// outcome: a 1e-15 s cap admits one feature per column of the repair tile,
// so no assignment places F = 4 within it. Run(ILPII) does not fail; it
// places exactly GreedyCapped's assignment for the tile.
func TestRunILPIIUnderPlacesInfeasibleCappedTile(t *testing.T) {
	l, d := smallLayout(t)
	const netCap = 1e-15
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, NetCap: netCap, NoSolveMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	instances := placeableRepairTiles(1)
	in := instances[0]
	nc := &NetCap{MaxAddedDelay: netCap}
	if _, _, err := SolveILPII(in, &eng.Cfg.ILPOpts, nc); err == nil {
		t.Fatal("ILP-II found a full assignment within the caps; the tile is not infeasible")
	}
	want := make(Assignment, len(in.Columns))
	NewSolveScratch().solveGreedyCapped(want, in, nc)
	if placedTotal(want) >= in.F {
		t.Fatalf("capped greedy placed %v, want fewer than %d", want, in.F)
	}
	got, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatalf("capped ILP-II on an infeasible tile: %v", err)
	}
	greedy, err := eng.Run(GreedyCapped, instances)
	if err != nil {
		t.Fatal(err)
	}
	if got.Placed != placedTotal(want) || got.Requested != in.F {
		t.Errorf("placed %d of %d, want %d of %d", got.Placed, got.Requested, placedTotal(want), in.F)
	}
	got.ILPNodes, got.LPPivots = greedy.ILPNodes, greedy.LPPivots
	requireResultsIdentical(t, "ILP-II fallback vs GreedyCapped", got, greedy)
}

// cancelAfterCtx reports cancellation from its n-th Err call on, so a
// cancel can land inside a tile solve deterministically.
type cancelAfterCtx struct {
	context.Context
	left atomic.Int64
	done chan struct{}
}

func (c *cancelAfterCtx) Done() <-chan struct{} { return c.done }

func (c *cancelAfterCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCappedRunCancelledNeverFallsBack cancels a capped ILP-II run inside
// its first tile solve, after the tile-boundary check. The run fails with
// context.Canceled and the cancelled solve is neither placed by the greedy
// fallback nor stored in the memo, so a later run on the same memo matches
// a memo-off run.
func TestCappedRunCancelledNeverFallsBack(t *testing.T) {
	l, d := smallLayout(t)
	memo := NewSolveMemo()
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, NetCap: 2e-15, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	instances := placeableRepairTiles(1)
	ctx := &cancelAfterCtx{Context: context.Background(), done: make(chan struct{})}
	ctx.left.Store(1) // the tile-boundary check passes; the hull sweep sees the cancel
	if _, err := eng.RunContext(ctx, ILPII, instances); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := memo.Stats(); st.Stored != 0 {
		t.Fatalf("cancelled run stored %d memo entries", st.Stored)
	}
	warm, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	eng.Cfg.NoSolveMemo, eng.memo = true, nil
	fresh, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsIdentical(t, "after a cancelled run", warm, fresh)
	if warm.Placed != warm.Requested {
		t.Errorf("feasible capped tile placed %d of %d", warm.Placed, warm.Requested)
	}
}
