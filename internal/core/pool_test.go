package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pilfill/internal/ilp"
	"pilfill/internal/layout"
	"pilfill/internal/scanline"
)

var allMethods = []Method{Normal, Greedy, GreedyCapped, MarginalGreedy, DP, ILPI, ILPII}

// requireResultsIdentical compares everything a Result reports that is
// supposed to be deterministic: objective values bit-for-bit, counts, search
// effort, per-net attribution, and the exact fill geometry.
func requireResultsIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Unweighted != want.Unweighted || got.Weighted != want.Weighted {
		t.Errorf("%s: objective differs: (%g,%g) vs (%g,%g)",
			label, got.Unweighted, got.Weighted, want.Unweighted, want.Weighted)
	}
	if got.Placed != want.Placed || got.Requested != want.Requested || got.Tiles != want.Tiles {
		t.Errorf("%s: counts differ: placed %d/%d tiles %d vs %d/%d tiles %d",
			label, got.Placed, got.Requested, got.Tiles, want.Placed, want.Requested, want.Tiles)
	}
	if got.ILPNodes != want.ILPNodes || got.LPPivots != want.LPPivots {
		t.Errorf("%s: search effort differs: %d nodes/%d pivots vs %d/%d",
			label, got.ILPNodes, got.LPPivots, want.ILPNodes, want.LPPivots)
	}
	for n := range want.PerNet {
		if got.PerNet[n] != want.PerNet[n] {
			t.Errorf("%s: PerNet[%d] = %g vs %g", label, n, got.PerNet[n], want.PerNet[n])
		}
	}
	if len(got.Fill.Fills) != len(want.Fill.Fills) {
		t.Fatalf("%s: fill counts differ: %d vs %d", label, len(got.Fill.Fills), len(want.Fill.Fills))
	}
	for i := range want.Fill.Fills {
		if got.Fill.Fills[i] != want.Fill.Fills[i] {
			t.Fatalf("%s: fill %d differs: %v vs %v", label, i, got.Fill.Fills[i], want.Fill.Fills[i])
		}
	}
}

// freshScratchReference solves every instance with the exported per-method
// wrapper, each on its own fresh SolveScratch, and reduces in instance order
// exactly as RunContext documents: Evaluate sums, per-net attribution,
// placement and search effort. It is the one-off
// counterpart of a warm engine run.
func freshScratchReference(t *testing.T, eng *Engine, m Method, instances []*Instance) *Result {
	t.Helper()
	nc := &NetCap{MaxAddedDelay: eng.Cfg.NetCap}
	ref := &Result{
		Method: m,
		Fill:   &layout.FillSet{Grid: eng.Grid, Layer: eng.Cfg.Layer},
		PerNet: make([]float64, len(eng.L.Nets)),
	}
	var rows []int
	for _, in := range instances {
		var a Assignment
		var sol *ilp.Solution
		var err error
		switch m {
		case Normal:
			a = normalOf(in, rand.New(rand.NewSource(eng.normalSeed(in))))
		case Greedy:
			a = greedyOf(in)
		case MarginalGreedy:
			a = marginalOf(in)
		case GreedyCapped:
			a = make(Assignment, len(in.Columns))
			NewSolveScratch().solveGreedyCapped(a, in, nc)
		case DP:
			a, err = dpOf(in)
		case ILPI:
			a, err = ilpIOf(in)
		case ILPII:
			a, sol, err = ilpIIOf(in, &ilp.Options{MaxNodes: eng.Cfg.ILPNodeLimit}, nc)
		}
		if err != nil {
			t.Fatalf("%v tile (%d,%d): %v", m, in.I, in.J, err)
		}
		if sol != nil {
			ref.ILPNodes += sol.Nodes
			ref.LPPivots += sol.LPPivots
		}
		u, w, err := in.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		ref.Unweighted += u
		ref.Weighted += w
		ref.Requested += in.F
		for _, k := range a {
			ref.Placed += k
		}
		ref.Tiles++
		if err := eng.accumulatePerNet(ref.PerNet, in, a); err != nil {
			t.Fatal(err)
		}
		if err := eng.place(ref.Fill, in, a, &rows); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// TestRunMatchesFreshScratchSolves is the central equivalence guarantee of
// the steady-state path: for every method, a warm engine run (pooled
// scratches, assignment slab, reused searcher, LPT fan-out) is bit-identical
// to solving each tile with the exported wrapper on a fresh scratch, serial
// and parallel alike.
func TestRunMatchesFreshScratchSolves(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	// 2e-17 s binds GreedyCapped (it under-places) while every tile's ILP-II
	// program stays feasible; a looser cap would leave the spend map unused.
	eng.Cfg.NetCap = 2e-17
	eng.memo = nil // solve every tile: memo replays would skip the scratch path
	instances := mustInstances(t, eng, budget)
	if len(instances) == 0 {
		t.Fatal("no instances")
	}
	for _, m := range allMethods {
		ref := freshScratchReference(t, eng, m, instances)
		if m == GreedyCapped && ref.Placed == ref.Requested {
			t.Fatalf("NetCap %g does not bind GreedyCapped", eng.Cfg.NetCap)
		}
		for _, workers := range []int{0, 4} {
			eng.Cfg.Workers = workers
			// Two runs back to back: the second reuses every warmed buffer,
			// so it also proves reuse does not leak state across runs.
			for pass := 0; pass < 2; pass++ {
				got, err := eng.Run(m, instances)
				if err != nil {
					t.Fatalf("%v (workers=%d): %v", m, workers, err)
				}
				requireResultsIdentical(t, m.String(), got, ref)
			}
		}
		eng.Cfg.Workers = 0
	}
}

// TestWarmRunAllocs enforces the steady-state allocation budget: after a
// warm-up run, a whole Engine.Run allocates only its per-run fixed overhead
// (Result, PerNet, fill set, assignment slab, outcome table) — nothing per
// tile-solve beyond the fill features themselves.
func TestWarmRunAllocs(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	// Fixed per-run overhead: Result + PerNet + FillSet + slab + outs +
	// scratch list + ~log2(placed) fill-append growths + timing. What it
	// must NOT include is anything proportional to tiles × solve work —
	// with 4 tiles the old path spent hundreds of allocations per tile.
	const maxPerRun = 40
	for _, m := range allMethods {
		if m == GreedyCapped {
			continue // identical machinery to Greedy when NetCap is 0
		}
		for i := 0; i < 2; i++ { // warm the scratch pool
			if _, err := eng.Run(m, instances); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := eng.Run(m, instances); err != nil {
				t.Fatal(err)
			}
		})
		if avg > maxPerRun {
			t.Errorf("%v: warm run allocates %.0f times, want <= %d", m, avg, maxPerRun)
		}
	}

	// Capped ILP-II with the memo off, so every warm run re-solves every
	// tile: the layout's tiles pass the certificate (the cap is slack for
	// them), and the repairInstance tiles, whose repaired incumbent lies
	// above the hull bound, fall back to branch-and-bound.
	eng.Cfg.NetCap = 2e-15
	eng.memo = nil
	capped := append(slices.Clone(instances), placeableRepairTiles(3)...)
	certified, branched := 0, 0
	sc := NewSolveScratch()
	for _, in := range capped {
		a := make(Assignment, len(in.Columns))
		sol, st, err := sc.solveILPII(context.Background(), in, &NetCap{MaxAddedDelay: eng.Cfg.NetCap}, a, defaultOpts(sc))
		switch {
		case err != nil:
			t.Fatal(err)
		case sol != nil:
			branched++
			if !st.incRepaired {
				t.Fatalf("tile (%d,%d) branched without a repaired incumbent", in.I, in.J)
			}
		case in.F > 0:
			certified++
		}
	}
	if certified == 0 || branched != 3 {
		t.Fatalf("capped run covers %d certified and %d branched tiles, want some and 3", certified, branched)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(ILPII, capped); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(ILPII, capped); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxPerRun {
		t.Errorf("capped ILP-II: warm run allocates %.0f times, want <= %d", avg, maxPerRun)
	}

	// The same per-run ceiling over the 2032 real T1/20/8 tiles, for every
	// method: one allocation per tile solve would be fifty times over it.
	// GreedyCapped runs under a cap that binds, so its spend map is live.
	eng, instances = t1Tiles(t)
	for _, m := range allMethods {
		eng.Cfg.NetCap = 0
		if m == GreedyCapped {
			eng.Cfg.NetCap = 2e-17
		}
		var res *Result
		for i := 0; i < 2; i++ {
			var err error
			if res, err = eng.Run(m, instances); err != nil {
				t.Fatalf("T1/20/8 %v: %v", m, err)
			}
		}
		if m == GreedyCapped && res.Placed == res.Requested {
			t.Fatalf("NetCap %g does not bind GreedyCapped on T1/20/8", eng.Cfg.NetCap)
		}
		avg := testing.AllocsPerRun(3, func() {
			if _, err := eng.Run(m, instances); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("T1/20/8 %v: %.0f allocs per warm run over %d tiles", m, avg, len(instances))
		if avg > maxPerRun {
			t.Errorf("T1/20/8 %v: warm run allocates %.0f times, want <= %d", m, avg, maxPerRun)
		}
	}
}

// TestConcurrentRunsSharePool hammers the engine's scratch freelist from
// concurrent Run calls (run under -race in CI) and checks every result is
// still bit-identical to a serial reference.
func TestConcurrentRunsSharePool(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	eng.Cfg.Workers = 2
	ref, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = eng.Run(ILPII, instances)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		requireResultsIdentical(t, "concurrent", results[g], ref)
	}
}
