package core

import (
	"math/rand"
	"slices"

	"pilfill/internal/ilp"
	"pilfill/internal/lp"
)

// SolveScratch owns every reusable buffer of one worker's tile-solve path:
// the branch-and-bound searcher (which in turn owns its lp.Workspace), the
// ILP-I/ILP-II problem-builder buffers, and the per-method solver scratch
// (greedy sort keys, marginal heap, Normal's sampler and rng, DP tables).
// After a few tiles the buffers reach the instance family's high-water mark
// and the steady-state solve path stops allocating.
//
// A SolveScratch is strictly worker-local: Engine.RunContext borrows one per
// worker from the engine's pool and returns it when the run ends, so no two
// goroutines ever share one. Everything built in a scratch (problems,
// incumbents, solutions) is overwritten by the next tile solved on it.
//
// The scratch methods are the only tile-solve implementation: the exported
// BuildILPI/BuildILPII/Solve* functions run them on a fresh scratch, so a
// one-off solve and a warm engine run execute the same code.
type SolveScratch struct {
	searcher ilp.Searcher
	opts     ilp.Options // per-tile options copy (Incumbent/Progress wiring)

	// ILP problem-builder buffers.
	prob     ilp.Problem
	prog     ILPIIProgram
	obj      []float64
	vts      []ilp.VarType
	upper    []float64
	cons     []lp.Constraint
	rowArena []float64 // backing storage for constraint rows, reset per tile
	inc      []float64 // incumbent vector
	vars     []ilpiiVars
	netRows  map[int][]float64
	netKeys  []int
	hullA    Assignment // hullSweep's convexified-optimum assignment

	// Heuristic-solver buffers.
	keys  []costKey
	mheap marginalHeap
	slots []int
	spent map[int]float64
	// repairIncumbent's capped nets by dense id, per-id spend and budget,
	// and per-column side ids.
	repairNets   []int
	repairSpend  []float64
	repairBudget []float64
	repairIDs    []int
	rng          *rand.Rand // Normal's sampler, created on first use

	// DP buffers.
	dpA, dpB    []float64
	choiceArena []int32
	choiceRows  [][]int32

	// Hull-sweep buffers (see hull.go; ILP-II): the per-unit
	// convexified-marginal arena, the hull-vertex flag arena, per-column
	// offsets into both, and the monotone-chain hull stack.
	hullMarg  []float64
	hullVert  []bool
	hullOff   []int
	hullStack []int32

	// Solve-memo fingerprint buffers (serialization bytes and the canonical
	// net-ranking scratch), reused across the worker's tiles.
	fpBuf  []byte
	fpNets []int
}

// NewSolveScratch returns an empty scratch; buffers grow on first use, so a
// one-off scratch costs only the buffers its solve actually touches.
func NewSolveScratch() *SolveScratch { return &SolveScratch{} }

// withOpts copies opts (zero options when nil) into the scratch's per-tile
// options and returns them; the solve methods mutate that copy, never the
// caller's.
func (sc *SolveScratch) withOpts(opts *ilp.Options) *ilp.Options {
	sc.opts = ilp.Options{}
	if opts != nil {
		sc.opts = *opts
	}
	return &sc.opts
}

// seededRNG returns the scratch's Normal sampler re-seeded to seed.
// Re-seeding reinitializes the source exactly as rand.NewSource(seed) would,
// so every tile draws the same stream as a fresh rand.New of its seed.
func (sc *SolveScratch) seededRNG(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(seed))
	} else {
		sc.rng.Seed(seed)
	}
	return sc.rng
}

// grow returns s resized to n entries, reusing capacity. Contents are
// unspecified — callers must overwrite every entry.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growZero is grow with every entry zeroed.
func growZero[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// newRow returns a zeroed coefficient row of length n carved from the row
// arena (rows already carved keep their old backing when the arena has to
// grow, so they stay valid).
func (sc *SolveScratch) newRow(n int) []float64 {
	old := len(sc.rowArena)
	if cap(sc.rowArena)-old < n {
		sc.rowArena = make([]float64, 0, 2*(cap(sc.rowArena)+n))
		old = 0
	}
	row := sc.rowArena[old : old+n : old+n]
	sc.rowArena = sc.rowArena[:old+n]
	clear(row)
	return row
}

// problem resets the row arena and constraint list for a new tile and
// returns the cleared problem shell with zeroed Objective/VarTypes/Upper
// slices of length n.
func (sc *SolveScratch) problem(n int) *ilp.Problem {
	sc.rowArena = sc.rowArena[:0]
	sc.obj = growZero(sc.obj, n)
	sc.vts = growZero(sc.vts, n)
	sc.upper = growZero(sc.upper, n)
	sc.prob = ilp.Problem{NumVars: n, Objective: sc.obj, VarTypes: sc.vts, Upper: sc.upper}
	return &sc.prob
}

// netRowsBuf returns an empty net→coefficient-row map, reused when possible.
func (sc *SolveScratch) netRowsBuf() map[int][]float64 {
	if sc.netRows == nil {
		sc.netRows = map[int][]float64{}
	}
	clear(sc.netRows)
	return sc.netRows
}

// sortedNets returns the map's net indices in ascending order, the
// deterministic constraint order of the per-net cap rows.
func (sc *SolveScratch) sortedNets(rows map[int][]float64) []int {
	nets := sc.netKeys[:0]
	for net := range rows {
		nets = append(nets, net)
	}
	slices.Sort(nets)
	sc.netKeys = nets
	return nets
}

// spentMap returns an empty per-net spend map, reused when possible.
func (sc *SolveScratch) spentMap() map[int]float64 {
	if sc.spent == nil {
		sc.spent = map[int]float64{}
	}
	clear(sc.spent)
	return sc.spent
}

// getScratches borrows n worker scratches from the engine's pool, creating
// new ones as needed. The pool is a plain mutex-guarded freelist rather than
// a sync.Pool so warm buffers survive garbage collection — the steady-state
// allocation guarantees (and the AllocsPerRun tests enforcing them) do not
// depend on GC timing.
func (e *Engine) getScratches(n int) []*SolveScratch {
	out := make([]*SolveScratch, n)
	e.scratchMu.Lock()
	for i := 0; i < n; i++ {
		if k := len(e.scratchFree); k > 0 {
			out[i] = e.scratchFree[k-1]
			e.scratchFree[k-1] = nil
			e.scratchFree = e.scratchFree[:k-1]
		}
	}
	e.scratchMu.Unlock()
	for i := range out {
		if out[i] == nil {
			out[i] = NewSolveScratch()
		}
	}
	return out
}

// putScratches returns borrowed scratches to the engine's pool.
func (e *Engine) putScratches(scs []*SolveScratch) {
	e.scratchMu.Lock()
	e.scratchFree = append(e.scratchFree, scs...)
	e.scratchMu.Unlock()
}
