package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// costKey pairs a column index with its sort key. The (key, k) pair is a
// total order, so every sort algorithm produces the same permutation.
type costKey struct {
	k   int
	key float64
}

func cmpCostKey(a, b costKey) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return a.k - b.k
}

func sortCostKeys(keys []costKey) { slices.SortFunc(keys, cmpCostKey) }

// wholeColumnKeys fills keys with each column's whole-column fill cost
// (r̂_k · ΔC(C_k)) sorted ascending — the order Fig 8's greedy consumes.
func wholeColumnKeys(keys []costKey, in *Instance) []costKey {
	keys = grow(keys, len(in.Columns))
	for k := range in.Columns {
		cv := &in.Columns[k]
		keys[k] = costKey{k: k, key: cv.costAt(cv.MaxM)}
	}
	sortCostKeys(keys)
	return keys
}

// solveNormal emulates the performance-oblivious baseline: the prescribed
// number of features is spread uniformly at random over the tile's free
// sites (each site equally likely), exactly as a density-only fill tool
// would. The rng seed makes runs reproducible. It writes into a zeroed
// Assignment, sampling over the scratch's slot buffer.
func (sc *SolveScratch) solveNormal(a Assignment, in *Instance, rng *rand.Rand) {
	total := in.TotalCapacity()
	if in.F <= 0 || total == 0 {
		return
	}
	// Sample F distinct sites out of `total` with a partial Fisher-Yates
	// over the implicit site array, then count per column.
	sc.slots = grow(sc.slots, total)
	slots := sc.slots
	idx := 0
	for k := range in.Columns {
		for m := 0; m < in.Columns[k].MaxM; m++ {
			slots[idx] = k
			idx++
		}
	}
	for i := 0; i < in.F; i++ {
		j := i + rng.Intn(total-i)
		slots[i], slots[j] = slots[j], slots[i]
		a[slots[i]]++
	}
}

// solveGreedy is Fig 8's method: columns are sorted by the delay cost of
// filling them completely (r̂_k · ΔC(C_k)), and fill is poured into whole
// columns in ascending cost order until the budget is exhausted. It writes
// into a zeroed Assignment, sorting in the scratch's key buffer.
func (sc *SolveScratch) solveGreedy(a Assignment, in *Instance) {
	sc.keys = wholeColumnKeys(sc.keys, in)
	pour(a, in, sc.keys)
}

// pour fills whole columns into a (zeroed) in key order until in.F
// features are placed, the last column taking only the remainder. It
// returns the shortfall, non-zero only when the columns hold fewer than F.
func pour(a Assignment, in *Instance, keys []costKey) (shortfall int) {
	remaining := in.F
	for _, kd := range keys {
		if remaining == 0 {
			break
		}
		take := in.Columns[kd.k].MaxM
		if take > remaining {
			take = remaining
		}
		a[kd.k] = take
		remaining -= take
	}
	return remaining
}

// solveGreedyCapped runs the Fig 8 greedy with the footnote's safeguard: an
// upper bound on each net's added delay. Columns are filled in cost order,
// but the take is reduced so no bounding net exceeds nc.budgetFor(net) (a
// per-net budget of 0 blocks the net entirely); the method may therefore
// place fewer than F features. a must be zeroed.
func (sc *SolveScratch) solveGreedyCapped(a Assignment, in *Instance, nc *NetCap) {
	sc.keys = wholeColumnKeys(sc.keys, in)
	spent := sc.spentMap()
	remaining := in.F
	for _, kd := range sc.keys {
		if remaining == 0 {
			break
		}
		cv := &in.Columns[kd.k]
		take := cv.MaxM
		if take > remaining {
			take = remaining
		}
		if cv.DeltaC != nil {
			// Charge the switch-factor-scaled resistances so the cap bounds
			// the same per-net delay that Evaluate and PerNet report.
			for take > 0 {
				dc := cv.DeltaC[take]
				okLow := cv.NetLow < 0 || spent[cv.NetLow]+dc*cv.REffLow <= nc.budgetFor(cv.NetLow)
				okHigh := cv.NetHigh < 0 || spent[cv.NetHigh]+dc*cv.REffHigh <= nc.budgetFor(cv.NetHigh)
				if okLow && okHigh {
					break
				}
				take--
			}
			if take > 0 {
				dc := cv.DeltaC[take]
				if cv.NetLow >= 0 {
					spent[cv.NetLow] += dc * cv.REffLow
				}
				if cv.NetHigh >= 0 {
					spent[cv.NetHigh] += dc * cv.REffHigh
				}
			}
		}
		a[kd.k] = take
		remaining -= take
	}
}

// marginalItem is a sweep heap entry: the cost of the next feature in a
// column.
type marginalItem struct {
	k     int
	next  int // the feature index this entry would place (1-based)
	delta float64
}

// less is the sweep order: cheaper marginal first, lower column index on
// ties. A column is in the heap at most once, so it is a strict total order
// and the heap's minimum is unique: the pop sequence depends only on the
// heap's contents, never on how the heap arranges them.
func (it marginalItem) less(o marginalItem) bool {
	if it.delta != o.delta {
		return it.delta < o.delta
	}
	return it.k < o.k
}

// marginalHeap is a binary min-heap of marginalItems under less, typed so
// the sweep pays no interface call per comparison.
type marginalHeap []marginalItem

// init establishes the heap order over arbitrary contents.
func (h marginalHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts h[i] toward the leaves until no child is cheaper: it restores
// the heap order after the root is replaced, and builds it in init.
func (h marginalHeap) down(i int) {
	n := len(h)
	if i >= n {
		return
	}
	it := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(it) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}

// sweepPollEvery is the sweep's cancellation-poll cadence in heap pops.
const sweepPollEvery = 4096

// sweep is the one marginal sweep behind the marginal greedy, the hull
// bound and Frontier: it places up to in.F features into a (zeroed), one
// at a time, always into the column whose next per-unit marginal is
// cheapest (lowest column index on ties). marg[off[k]+m] is the marginal of
// column k's step m−1 → m; a nil marg means the raw cost differences
// costAt(m)−costAt(m−1). A non-nil fr records each pick and the accumulated
// cost after it. It returns how many features it placed, which is short of
// F only when the columns run out of capacity. ctx is polled every
// sweepPollEvery pops; the only error is a cancelled context.
func (sc *SolveScratch) sweep(ctx context.Context, in *Instance, a Assignment, marg []float64, off []int, fr *FillFrontier) (int, error) {
	delta := func(k, m int) float64 {
		if marg != nil {
			return marg[off[k]+m]
		}
		cv := &in.Columns[k]
		return cv.costAt(m) - cv.costAt(m-1)
	}
	h := sc.mheap[:0]
	for k := range in.Columns {
		if in.Columns[k].MaxM > 0 {
			h = append(h, marginalItem{k: k, next: 1, delta: delta(k, 1)})
		}
	}
	sc.mheap = h
	h.init()
	total := 0.0
	placed := 0
	for ; placed < in.F && len(h) > 0; placed++ {
		if placed%sweepPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return placed, err
			}
		}
		it := h[0]
		a[it.k] = it.next
		if fr != nil {
			total += it.delta
			fr.Picks = append(fr.Picks, it.k)
			fr.Cost = append(fr.Cost, total)
		}
		// Pop and push of the same column in one step: the column's next
		// marginal replaces the root, or the last leaf does when the column
		// is full.
		if it.next < in.Columns[it.k].MaxM {
			h[0] = marginalItem{k: it.k, next: it.next + 1, delta: delta(it.k, it.next+1)}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return placed, nil
}

// solveMarginalGreedy places one feature at a time, always into the column
// with the cheapest marginal cost: the sweep over the raw cost differences,
// writing into a zeroed Assignment. Because every exact cost curve is convex
// in m (ΔC(m) = ε·a/(d−m·w) − C_B has increasing differences), this greedy
// is provably optimal for the MDFC objective — it serves as the ablation
// reference showing the paper's whole-column Greedy loses only through its
// coarser granularity. A non-nil fr also records each pick and the
// accumulated cost after it (see Frontier).
func (sc *SolveScratch) solveMarginalGreedy(a Assignment, in *Instance, fr *FillFrontier) {
	// A background context never cancels, so the sweep cannot fail.
	sc.sweep(context.Background(), in, a, nil, nil, fr)
}

// DPMaxStates bounds the dynamic program's table size (columns × budget).
const DPMaxStates = 50_000_000

// solveDP computes the exact optimum by dynamic programming over columns:
// dp[f] = min cost to place f features in the columns seen so far. It is
// pseudo-polynomial — O(K·F·maxM) time, O(F) space — and is used as the
// optimality reference in tests and ablations. It writes into a
// caller-owned Assignment, sourcing the dp rows and the choice table
// (choice[k][f] = m chosen for column k at budget f) from the scratch. The
// context is polled once per column (the outer loop of the table fill),
// bounding the work after a cancel to one column's O(F·maxM) row.
func (sc *SolveScratch) solveDP(ctx context.Context, a Assignment, in *Instance) error {
	kn := len(in.Columns)
	if int64(kn)*int64(in.F+1) > DPMaxStates {
		return fmt.Errorf("core: DP instance too large (%d columns × %d budget)", kn, in.F)
	}
	const inf = math.MaxFloat64
	sc.dpA = grow(sc.dpA, in.F+1)
	sc.dpB = grow(sc.dpB, in.F+1)
	dp, next := sc.dpA, sc.dpB
	sc.choiceRows = grow(sc.choiceRows, kn)
	sc.choiceArena = grow(sc.choiceArena, kn*(in.F+1))
	for k := 0; k < kn; k++ {
		sc.choiceRows[k] = sc.choiceArena[k*(in.F+1) : (k+1)*(in.F+1)]
	}
	choice := sc.choiceRows
	dp[0] = 0
	for f := 1; f <= in.F; f++ {
		dp[f] = inf
	}
	for k := 0; k < kn; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cv := &in.Columns[k]
		for f := 0; f <= in.F; f++ {
			best := inf
			var bestM int32
			maxM := cv.MaxM
			if maxM > f {
				maxM = f
			}
			for m := 0; m <= maxM; m++ {
				if dp[f-m] == inf {
					continue
				}
				c := dp[f-m] + cv.costAt(m)
				if c < best {
					best = c
					bestM = int32(m)
				}
			}
			next[f] = best
			choice[k][f] = bestM
		}
		dp, next = next, dp
	}
	if dp[in.F] == inf {
		return fmt.Errorf("core: DP found no feasible assignment for F=%d", in.F)
	}
	f := in.F
	for k := kn - 1; k >= 0; k-- {
		m := int(choice[k][f])
		a[k] = m
		f -= m
	}
	return nil
}
