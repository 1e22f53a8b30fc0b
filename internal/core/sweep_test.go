package core

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pilfill/internal/ilp"
	"pilfill/internal/scanline"
)

// refHeap is the sweep order, (delta, column) ascending, stated on its own
// behind container/heap's interface: the reference the typed heap must pop
// identically to.
type refHeap []marginalItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(a, b int) bool {
	if h[a].delta != h[b].delta {
		return h[a].delta < h[b].delta
	}
	return h[a].k < h[b].k
}
func (h refHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(marginalItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestMarginalHeapMatchesContainerHeap drives the typed heap the way the
// sweep does (replace the root with the same column's next marginal, or
// drop the root when the column is full) and container/heap with the
// matching Pop and Push, on random columns whose deltas come from a
// three-value set (signed zeros included), so most comparisons are ties
// broken by the column index. The pop sequences must be identical.
func TestMarginalHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	deltas := []float64{0, negZero(), 1, 2}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		var h marginalHeap
		for _, k := range rng.Perm(n + 5)[:n] {
			h = append(h, marginalItem{k: k, next: 1, delta: deltas[rng.Intn(len(deltas))]})
		}
		ref := refHeap(slices.Clone(h))
		h.init()
		heap.Init(&ref)
		for pops := 0; len(h) > 0; pops++ {
			got, want := h[0], heap.Pop(&ref).(marginalItem)
			if got != want {
				t.Fatalf("trial %d pop %d: typed heap %+v, container/heap %+v", trial, pops, got, want)
			}
			if rng.Intn(4) > 0 {
				next := marginalItem{k: got.k, next: got.next + 1, delta: deltas[rng.Intn(len(deltas))]}
				h[0] = next
				heap.Push(&ref, next)
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			h.down(0)
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: typed heap emptied with %d reference items left", trial, ref.Len())
		}
	}
}

func negZero() float64 { z := 0.0; return -z }

// twoSweepILPII is the reference of solveILPII's single sweep: the hull
// sweep for the bound, a second (raw) marginal sweep for the incumbent and
// hullCertifies on every tile, then the same B&B tail.
func twoSweepILPII(sc *SolveScratch, in *Instance, nc *NetCap, a Assignment, opts ilp.Options) (*ilp.Solution, solveStats, error) {
	var st solveStats
	if len(in.Columns) == 0 || in.F == 0 {
		return nil, st, nil
	}
	hull, _, err := sc.hullSweep(context.Background(), in)
	if err != nil {
		return nil, st, err
	}
	st.incRepaired, st.incDropped = sc.ilpiiIncumbent(in, nc, a, nil)
	if !st.incDropped && hull != nil && sc.hullCertifies(in, a, hull) {
		return nil, st, nil
	}
	sol, err := sc.branchILPII(in, nc, a, &st, &opts)
	return sol, st, err
}

// sweepTally counts how the differential test's tiles were settled.
type sweepTally struct{ convex, convexRepaired, nonConvex, short, branched, failed int }

// requireSingleSweepMatchesTwoSweep solves in with solveILPII on sc and
// with twoSweepILPII on ref, and fails unless both agree on the error, on
// whether the tile certified, on the assignment, the repair outcome and the
// search effort.
func requireSingleSweepMatchesTwoSweep(t *testing.T, label string, sc, ref *SolveScratch, in *Instance, nc *NetCap, tally *sweepTally) {
	t.Helper()
	opts := ilp.Options{MaxNodes: 64}
	a := make(Assignment, len(in.Columns))
	sol, st, err := sc.solveILPII(context.Background(), in, nc, a, func() *ilp.Options { return sc.withOpts(&opts) })
	b := make(Assignment, len(in.Columns))
	refSol, refSt, refErr := twoSweepILPII(ref, in, nc, b, opts)
	where := fmt.Sprintf("%s tile (%d,%d) F=%d", label, in.I, in.J, in.F)
	if (err == nil) != (refErr == nil) || (sol == nil) != (refSol == nil) {
		t.Fatalf("%s: single sweep (sol %v, err %v), two sweeps (sol %v, err %v)", where, sol != nil, err, refSol != nil, refErr)
	}
	if st != refSt {
		t.Fatalf("%s: single-sweep stats %+v, two-sweep %+v", where, st, refSt)
	}
	if err == nil && !slices.Equal(a, b) {
		t.Fatalf("%s: single sweep %v, two sweeps %v", where, a, b)
	}
	if len(in.Columns) == 0 || in.F == 0 {
		return
	}
	hull, convex, _ := NewSolveScratch().hullSweep(context.Background(), in)
	switch {
	case hull == nil:
		tally.short++
	case convex && st.incRepaired:
		tally.convexRepaired++
	case convex:
		tally.convex++
	default:
		tally.nonConvex++
	}
	if sol != nil {
		tally.branched++
	}
	if err != nil {
		tally.failed++
	}
}

// TestSingleSweepILPIIMatchesTwoSweep is the differential gate of the
// single-sweep ILP-II path. On random convex and grounded-style tiles,
// cap-model tiles, capped and uncapped, some asking for more than the
// tile's capacity, and on every buildEngine tile with floating and
// grounded fill, solveILPII must agree with the two-sweep reference on the
// assignment, the repair outcome and the nodes and pivots. Every kind of
// tile the single sweep treats differently must occur.
func TestSingleSweepILPIIMatchesTwoSweep(t *testing.T) {
	sc, ref := NewSolveScratch(), NewSolveScratch()
	var tally sweepTally
	rng := rand.New(rand.NewSource(29))
	trials := 3000
	if testing.Short() || raceEnabled {
		trials = 600
	}
	for trial := 0; trial < trials; trial++ {
		var in *Instance
		if trial%4 == 3 {
			in = synthInstance(rng, 1+rng.Intn(8))
		} else {
			in = dualSynthInstance(rng, 1+rng.Intn(8), trial%2 == 0)
		}
		in.I = trial
		if trial%7 == 0 {
			in.F = in.TotalCapacity() + 1 + rng.Intn(3)
		}
		var nc *NetCap
		if trial%3 == 0 && in.F > 0 {
			nc = dualRandomCaps(rng, in)
		}
		requireSingleSweepMatchesTwoSweep(t, "synthetic", sc, ref, in, nc, &tally)
	}
	for _, grounded := range []bool{false, true} {
		eng, budget := buildEngine(t, false, scanline.DefIII)
		eng.Cfg.Grounded = grounded
		for _, capS := range []float64{0, 5e-15, 5e-16} {
			label := fmt.Sprintf("buildEngine grounded=%v cap=%g", grounded, capS)
			nc := &NetCap{MaxAddedDelay: capS}
			for _, in := range mustInstances(t, eng, budget) {
				requireSingleSweepMatchesTwoSweep(t, label, sc, ref, in, nc, &tally)
			}
		}
	}
	t.Logf("%+v", tally)
	if tally.convex == 0 || tally.convexRepaired == 0 || tally.nonConvex == 0 || tally.short == 0 ||
		tally.branched == 0 || tally.failed == 0 {
		t.Fatalf("coverage too thin: %+v", tally)
	}
}
