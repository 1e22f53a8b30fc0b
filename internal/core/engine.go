package core

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pilfill/internal/cap"
	"pilfill/internal/density"
	"pilfill/internal/ilp"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
	"pilfill/internal/rc"
	"pilfill/internal/scanline"
)

// Method selects a PIL-Fill placement algorithm.
type Method int

// Placement methods. Normal is the density-only baseline; Greedy, ILPI and
// ILPII are the paper's three approaches; DP, MarginalGreedy and
// GreedyCapped are this implementation's extensions (exact reference,
// provably-optimal greedy, and the footnote's bounded-net-delay variant).
const (
	Normal Method = iota
	Greedy
	ILPI
	ILPII
	DP
	MarginalGreedy
	GreedyCapped
)

// String names the method as in the paper's tables.
func (m Method) String() string {
	switch m {
	case Normal:
		return "Normal"
	case Greedy:
		return "Greedy"
	case ILPI:
		return "ILP-I"
	case ILPII:
		return "ILP-II"
	case DP:
		return "DP"
	case MarginalGreedy:
		return "MarginalGreedy"
	case GreedyCapped:
		return "GreedyCapped"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Config parameterizes an Engine.
type Config struct {
	Layer    int          // routing layer to fill
	Def      scanline.Def // slack-column definition (0 = DefIII)
	Weighted bool         // optimize the sink-weighted objective
	Proc     cap.Process  // electrical model (zero value = cap.Default130)
	ILPOpts  ilp.Options  // branch-and-bound limits
	Seed     int64        // randomness for the Normal baseline
	// NetCap bounds each net's added delay per tile for the capped methods,
	// in seconds (interconnect deltas are femtoseconds, far below what
	// time.Duration can represent). 0 disables the bound. GreedyCapped and
	// ILP-II may then place fewer features than requested (see RunContext).
	NetCap float64
	// Activity optionally holds per-net switching activities in [0, 1] for
	// crosstalk-aware costing (after Kahng/Muddu/Sarto's switch factors):
	// the coupling a column adds to a victim line is scaled by
	// 1 + activity(aggressor), the expected Miller factor. Nil means all
	// aggressors quiet (factor 1, the paper's model).
	Activity []float64
	// Workers solves tile instances concurrently when > 1. Results are
	// bit-identical to the serial run: tiles are independent, the Normal
	// baseline derives its randomness per tile from (Seed, I, J), and the
	// reduction happens in instance order.
	Workers int
	// TileOffI/TileOffJ translate this engine's tile indices to a containing
	// chip's tile grid for the Normal baseline's per-tile seed derivation, so
	// a sharded region run reproduces the whole-chip run's randomness
	// tile-for-tile (internal/shard sets them; zero means the engine's grid
	// is the chip's). They affect nothing but Normal's per-tile RNG seeds.
	TileOffI, TileOffJ int
	// Grounded models tied-to-ground fill instead of the paper's floating
	// fill: heavier capacitive loading (cap.DeltaGrounded) in exchange for
	// crosstalk shielding. Note the grounded cost curve has a step at the
	// first feature, so MarginalGreedy (and the MVDC frontier built on it)
	// loses its optimality guarantee and becomes a heuristic; DP and ILP-II
	// remain exact.
	Grounded bool
	// Cache overrides the capacitance-table cache used during instance
	// construction; nil selects cap.Shared, the process-wide cache that
	// reuses tables across columns, tiles, and sessions.
	Cache *cap.TableCache
	// NoTableCache disables table memoization entirely (every column builds
	// its own table, the pre-cache behavior); used by benchmarks and the
	// cache-correctness tests.
	NoTableCache bool
	// Memo overrides the solve memo consulted before each tile solve; nil
	// selects SharedSolveMemo, the process-wide memo that reuses solved tile
	// patterns across runs and sessions. Results are bit-identical with the
	// memo on or off (see memo.go); only the work to produce them changes.
	Memo *SolveMemo
	// NoSolveMemo disables tile-solve memoization entirely (every tile is
	// solved from scratch, the pre-memo behavior): pilfill -no-solve-memo,
	// the daemon's no_solve_memo option and the memo-correctness tests.
	NoSolveMemo bool
	// Trace optionally records hierarchical spans (prep → analyze/extract,
	// run → tile → solve, ilp progress instants) into the observability
	// layer's ring buffer. A nil tracer is free: every span call is an
	// allocation-free no-op, so leaving this unset costs nothing on the
	// solve path.
	Trace *obs.Tracer
	// Logger receives structured solve-path logs: slow-tile warnings (see
	// SlowTile) at Warn, ILP solver progress at Debug. Nil disables logging.
	Logger *slog.Logger
	// SlowTile is the per-tile solve duration above which a warning is
	// logged (requires Logger). 0 disables the slow-tile warning.
	SlowTile time.Duration
	// ProgressNodes is the branch-and-bound node interval between solver
	// progress events (trace instants and Debug logs); 0 means
	// ilp.DefaultProgressEvery. Progress is only wired up when Trace is
	// enabled or Logger logs at Debug, so the default costs nothing.
	ProgressNodes int
	// OnTile, when set, is called once per successfully solved tile as the
	// solve completes — the live-progress feed for the serving layer. It is
	// invoked from the solve workers concurrently, so the callback must be
	// safe for concurrent use; nil costs nothing.
	OnTile func(TileEvent)
}

// TileEvent describes one completed tile solve for Config.OnTile. I/J are
// chip-grid tile coordinates (the engine's indices shifted by
// TileOffI/TileOffJ), so region shards report positions consistent with the
// whole-chip run.
type TileEvent struct {
	I, J     int
	MemoHit  bool
	Nodes    int
	LPPivots int
	Dur      time.Duration
}

// PrepStats breaks down the engine's preprocessing wall time. Analyze and
// Build fan out across Config.Workers; the split lets benchmarks attribute
// preprocessing cost the same way the paper's tables attribute solver CPU.
type PrepStats struct {
	Analyze time.Duration // RC analysis of every net
	Extract time.Duration // slack-column extraction
	Build   time.Duration // instance construction (accumulated by Instances)
	Total   time.Duration // everything above plus grid/occupancy setup
}

// Engine holds the per-layout preprocessing shared by all methods: RC
// analyses of every net and the slack-column extraction.
type Engine struct {
	L        *layout.Layout
	Dis      *layout.Dissection
	Grid     *layout.SiteGrid
	Occ      *layout.Occupancy
	Rule     layout.FillRule
	Cfg      Config
	Analyses []*rc.Analysis
	Tiles    [][]scanline.TileColumns
	// Prep records where the preprocessing wall time went (Build grows with
	// each Instances call).
	Prep PrepStats

	cache    *cap.TableCache // nil when Config.NoTableCache
	memo     *SolveMemo      // nil when Config.NoSolveMemo
	prepSpan obs.SpanID      // the "prep" span, parent of later build spans

	// scratchFree pools worker SolveScratches across runs (see
	// getScratches); guarded by scratchMu so concurrent RunContexts on one
	// engine each borrow disjoint scratches.
	scratchMu   sync.Mutex
	scratchFree []*SolveScratch
}

// workerCount resolves the effective fan-out width for n independent items.
func workerCount(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// fanOut runs fn(i) for i in [0, n) across the given number of workers. With
// one worker it degenerates to a plain loop; fn must touch only index-owned
// state so results are identical either way.
func fanOut(workers, n int, fn func(i int)) {
	fanOutOrder(workers, n, nil, func(_, i int) { fn(i) })
}

// fanOutWorker is fanOut exposing the worker index to fn — the tracer's
// display lane, so concurrent tiles render on separate rows in a trace.
func fanOutWorker(workers, n int, fn func(worker, i int)) {
	fanOutOrder(workers, n, nil, fn)
}

// fanOutOrder runs fn over n items across workers, claiming items off a
// single atomic counter (no feeder goroutine, no channel handoff per item).
// A non-nil order remaps the claim sequence — claim c runs fn(w, order[c])
// — so callers can front-load expensive items (longest-processing-time
// scheduling); nil means identity. Item-to-worker binding is nondeterministic
// under contention, which is why fn must touch only index-owned state.
func fanOutOrder(workers, n int, order []int, fn func(worker, i int)) {
	if workers = workerCount(workers, n); workers == 1 {
		for i := 0; i < n; i++ {
			if order != nil {
				fn(0, order[i])
			} else {
				fn(0, i)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= n {
					return
				}
				if order != nil {
					fn(w, order[c])
				} else {
					fn(w, c)
				}
			}
		}(w)
	}
	wg.Wait()
}

// predictCost scores a tile's expected solve cost for scheduling: the
// ILP-II variable count (Σ per-column curve lengths) dominates branch-and-
// bound work, scaled by the fill budget; the column count stands in for the
// heuristic methods' sort/heap work. Only the relative order matters — the
// score picks which tiles start first, never what any solver computes.
func predictCost(in *Instance) float64 {
	curve := 0
	for k := range in.Columns {
		curve += len(in.Columns[k].DeltaC)
	}
	return (float64(curve) + float64(len(in.Columns))) * float64(in.F+1)
}

// costOrder returns tile indices in descending predicted-cost order (index
// ascending on ties): longest-processing-time-first scheduling, which keeps
// a straggler tile from landing on a nearly-drained queue and stretching the
// run's makespan past the CPU-time lower bound.
func costOrder(instances []*Instance) []int {
	order := make([]int, len(instances))
	cost := make([]float64, len(instances))
	for i, in := range instances {
		order[i] = i
		cost[i] = predictCost(in)
	}
	slices.SortFunc(order, func(a, b int) int {
		if cost[a] != cost[b] {
			if cost[a] > cost[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	return order
}

// NewEngine prepares a layout for fill synthesis: site grid, occupancy, RC
// analysis of every net, and slack-column extraction under the configured
// definition. With Config.Workers > 1 the per-net RC analyses run
// concurrently; the result is identical to the serial build.
func NewEngine(l *layout.Layout, dis *layout.Dissection, rule layout.FillRule, cfg Config) (*Engine, error) {
	start := time.Now()
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Def == 0 {
		cfg.Def = scanline.DefIII
	}
	if cfg.Proc == (cap.Process{}) {
		cfg.Proc = cap.Default130
	}
	if err := cfg.Proc.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	grid, err := layout.NewSiteGrid(l.Die, rule)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	occ := layout.NewOccupancy(l, grid, cfg.Layer)

	prep := cfg.Trace.Start("phase", "prep", 0, 0)
	prep.Arg("nets", int64(len(l.Nets)))

	analyzeStart := time.Now()
	analyzeSpan := cfg.Trace.Start("phase", "analyze", 0, prep.ID())
	analyses := make([]*rc.Analysis, len(l.Nets))
	errs := make([]error, len(l.Nets))
	fanOut(cfg.Workers, len(l.Nets), func(i int) {
		analyses[i], errs[i] = rc.Analyze(l.Nets[i], cfg.Proc)
	})
	analyzeSpan.End()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: net %q: %w", l.Nets[i].Name, err)
		}
	}
	analyzeDur := time.Since(analyzeStart)

	extractStart := time.Now()
	extractSpan := cfg.Trace.Start("phase", "extract", 0, prep.ID())
	tiles, err := scanline.Extract(l, cfg.Layer, dis, occ, cfg.Def)
	extractSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Engine{
		L: l, Dis: dis, Grid: grid, Occ: occ, Rule: rule, Cfg: cfg,
		Analyses: analyses, Tiles: tiles,
		prepSpan: prep.ID(),
	}
	e.Prep.Analyze = analyzeDur
	e.Prep.Extract = time.Since(extractStart)
	e.Prep.Total = time.Since(start)
	prep.End()
	if !cfg.NoTableCache {
		e.cache = cfg.Cache
		if e.cache == nil {
			e.cache = cap.Shared
		}
	}
	if !cfg.NoSolveMemo {
		e.memo = cfg.Memo
		if e.memo == nil {
			e.memo = SharedSolveMemo
		}
	}
	return e, nil
}

// MemoStats snapshots the engine's solve-memo counters (zero when the memo
// is disabled). Note the default memo is process-wide, so the counters span
// every engine sharing it.
func (e *Engine) MemoStats() MemoStats {
	if e.memo == nil {
		return MemoStats{}
	}
	return e.memo.Stats()
}

// CacheStats snapshots the engine's capacitance-table cache counters (zero
// when caching is disabled). Note the default cache is process-wide, so the
// counters span every engine sharing it.
func (e *Engine) CacheStats() cap.CacheStats {
	if e.cache == nil {
		return cap.CacheStats{}
	}
	return e.cache.Stats()
}

// Instances builds the per-tile MDFC instances for a fill budget. Tiles with
// a zero budget produce no instance. Budgets exceeding a tile's slack-column
// capacity are clamped (the difference is reported by Result.Requested vs
// Placed after a Run). With Config.Workers > 1 the tiles are built
// concurrently; the instance list is identical to the serial build. A
// capacitance table that cannot cover a column's extracted capacity is an
// extraction bug and surfaces as an error (lowest tile first).
//
// A counting pass sizes every tile's share up front, so one call makes the
// same few allocations however many tiles and columns it builds: one
// []Instance, one []ColumnVar and one CostExact slab, each tile owning a
// full-slice-expression window of them (an append to one tile's columns or
// curves can never run into the next tile's).
func (e *Engine) Instances(budget density.Budget) ([]*Instance, error) {
	start := time.Now()
	build := e.Cfg.Trace.Start("phase", "build", 0, e.prepSpan)
	// slot is a budgeted tile and where its shares of the column and curve
	// slabs start; each share ends where the next slot's starts.
	type slot struct{ i, j, want, col, curve int }
	n := 0
	for i := 0; i < e.Dis.NX; i++ {
		for j := 0; j < e.Dis.NY; j++ {
			if budget[i][j] > 0 {
				n++
			}
		}
	}
	slots := make([]slot, 0, n)
	nCols, nCurve := 0, 0
	for i := 0; i < e.Dis.NX; i++ {
		for j := 0; j < e.Dis.NY; j++ {
			want := budget[i][j]
			if want <= 0 {
				continue
			}
			slots = append(slots, slot{i, j, want, nCols, nCurve})
			for k := range e.Tiles[i][j].Cols {
				col := &e.Tiles[i][j].Cols[k]
				if col.Capacity <= 0 {
					continue
				}
				nCols++
				if col.HasLow || col.HasHigh {
					nCurve += col.Capacity + 1
				}
			}
		}
	}
	built := make([]Instance, n)
	cols := make([]ColumnVar, nCols)
	curves := make([]float64, nCurve)
	errs := make([]error, n)
	fanOut(e.Cfg.Workers, n, func(s int) {
		sl := &slots[s]
		colEnd, curveEnd := nCols, nCurve
		if s+1 < n {
			colEnd, curveEnd = slots[s+1].col, slots[s+1].curve
		}
		errs[s] = e.buildInstance(&built[s], sl.i, sl.j, sl.want,
			cols[sl.col:colEnd:colEnd], curves[sl.curve:curveEnd:curveEnd])
	})
	for _, err := range errs {
		if err != nil {
			build.End()
			return nil, err
		}
	}
	out := make([]*Instance, 0, n)
	for s := range built {
		if len(built[s].Columns) > 0 {
			out = append(out, &built[s])
		}
	}
	dur := time.Since(start)
	e.Prep.Build += dur
	e.Prep.Total += dur
	build.Arg("instances", int64(len(out)))
	build.End()
	return out, nil
}

// PhaseTimes breaks a run's cost into phases so CPU comparisons isolate the
// solver (the quantity the paper's tables report) from everything around it.
type PhaseTimes struct {
	// Preprocess is the engine's preprocessing total (RC analysis, slack
	// extraction, instance construction) at the time of the run — shared by
	// every run on the engine, reported here for a complete breakdown.
	Preprocess time.Duration
	Solve      time.Duration // summed per-instance solver durations (== Result.CPU)
	Evaluate   time.Duration // assignment evaluation + per-net accounting
	Place      time.Duration // fill materialization
}

// Result reports one method's placement and its measured impact.
type Result struct {
	Method     Method
	Fill       *layout.FillSet
	Requested  int       // total features the budget asked for
	Placed     int       // features actually placed
	Unweighted float64   // measured Σ ΔC·R over all lines, seconds
	Weighted   float64   // measured Σ W_l·ΔC·R, seconds
	PerNet     []float64 // unweighted added delay per net, seconds
	// CPU is solver-only time: the sum of per-instance solve durations, so
	// serial and Workers>1 runs report comparable numbers. Wall is the
	// end-to-end duration of the Run call (under Workers>1 it is smaller
	// than CPU when tiles overlap).
	CPU      time.Duration
	Wall     time.Duration
	Phases   PhaseTimes // preprocess/solve/evaluate/place breakdown
	Tiles    int        // instances solved
	ILPNodes int        // total branch-and-bound nodes (ILP methods)
	LPPivots int        // total simplex pivots across all node LPs (ILP methods)
	// MemoHits/MemoMisses count tile solves served from (or stored into) the
	// solve memo this run. With concurrent workers two tiles of the same
	// pattern may race past the lookup and both solve, so the split between
	// hits and misses can vary run to run — unlike every field above, which
	// stays bit-identical regardless of memoization or workers.
	MemoHits   int
	MemoMisses int
	// IncumbentsRepaired/IncumbentsDropped count ILP-II warm-start incumbents
	// that had to be repaired against per-net delay-cap rows, and ones no
	// repair could save (the search then starts cold). Always zero when no
	// net cap is configured.
	IncumbentsRepaired int
	IncumbentsDropped  int
	// SlowestTiles holds the top slowest tile solves (at most
	// MaxSlowestTiles, slowest first) with chip-grid coordinates — the per-
	// region slice of the cluster-wide "which tiles ate the time" table.
	// Durations are wall-clock measurements, so the membership and order can
	// vary run to run; every other Result field stays bit-identical.
	SlowestTiles []TileTime
}

// MaxSlowestTiles caps Result.SlowestTiles.
const MaxSlowestTiles = 8

// TileTime is one entry of Result.SlowestTiles: a tile's chip-grid position,
// its solve duration, and the branch-and-bound effort behind it.
type TileTime struct {
	I, J  int
	Dur   time.Duration
	Nodes int
}

// solveStats carries one tile solve's deterministic by-products: search
// effort and warm-start repair outcomes. Memo entries replay them so memo-on
// and memo-off runs accumulate identical Results.
type solveStats struct {
	nodes, pivots           int
	incRepaired, incDropped bool
}

// ilpOpts copies the configured branch-and-bound limits and, when the
// context is cancellable, adds a per-node cancellation poll so an in-flight
// ILP solve stops promptly instead of running to its node limit.
func (e *Engine) ilpOpts(ctx context.Context) *ilp.Options {
	opts := e.Cfg.ILPOpts
	if ctx.Done() != nil {
		opts.Cancel = func() bool { return ctx.Err() != nil }
	}
	return &opts
}

// addProgress wires the observability hook into opts: when tracing is on or
// the logger accepts Debug, the branch-and-bound search reports progress
// every Config.ProgressNodes nodes as trace instants under the tile's span
// and as Debug logs. Otherwise opts is untouched, so the common case pays
// nothing (the hook closure allocates; it only exists on observed runs).
func (e *Engine) addProgress(ctx context.Context, opts *ilp.Options, in *Instance, lane int, parent obs.SpanID) {
	tr := e.Cfg.Trace
	lg := e.Cfg.Logger
	if lg != nil && !lg.Enabled(ctx, slog.LevelDebug) {
		lg = nil
	}
	if !tr.Enabled() && lg == nil {
		return
	}
	i, j := in.I, in.J
	opts.ProgressEvery = e.Cfg.ProgressNodes
	opts.Progress = func(pr ilp.Progress) {
		if tr.Enabled() {
			tr.Instant("ilp", "progress", lane, parent,
				obs.Arg{Name: "nodes", Value: int64(pr.Nodes)},
				obs.Arg{Name: "pivots", Value: int64(pr.LPPivots)})
		}
		if lg != nil {
			lg.Debug("ilp progress", "i", i, "j", j,
				"nodes", pr.Nodes, "pivots", pr.LPPivots, "open", pr.Open,
				"incumbent", pr.Incumbent, "hasIncumbent", pr.HasIncumbent,
				"bound", pr.Bound, "done", pr.Done)
		}
	}
}

// normalSeed derives the Normal baseline's per-tile RNG seed from the tile's
// chip-grid position (local index plus Config.TileOffI/J), so sharded region
// engines draw the same randomness for a tile as the whole-chip engine.
func (e *Engine) normalSeed(in *Instance) int64 {
	i, j := int64(in.I+e.Cfg.TileOffI), int64(in.J+e.Cfg.TileOffJ)
	return e.Cfg.Seed ^ (i*1_000_003+j)*2_654_435_761
}

// solveTile dispatches one tile to the chosen solver on the worker's
// scratch: the assignment lands in the caller's zeroed slab slice and every
// intermediate (problem, incumbent, searcher nodes, sampler state) comes
// from sc. base carries the run-wide ILP options (including the hoisted
// Cancel closure) and nc the run-wide net cap; both are read-only here. The
// Normal baseline derives its randomness from (Seed, I, J) so tiles can be
// solved in any order — or concurrently — with identical results. A
// cancelled context surfaces as the context's error; for the ILP methods
// the branch-and-bound search itself is interrupted mid-tile. Under an
// active cap, an ILP-II tile with no Σm = F assignment within the caps (or
// whose search ends at the node limit without one) places what fits with
// the capped greedy instead, like GreedyCapped; cancellation is checked
// first, so it never triggers that fallback.
func (e *Engine) solveTile(ctx context.Context, method Method, in *Instance, sc *SolveScratch,
	base *ilp.Options, nc *NetCap, a Assignment, lane int, span obs.SpanID) (solveStats, error) {
	var st solveStats
	if err := ctx.Err(); err != nil {
		return st, err
	}
	// The per-tile B&B options (and the progress hook) are built only for
	// tiles that reach the searcher.
	bnbOpts := func() *ilp.Options { return e.tileOpts(ctx, sc, base, in, lane, span) }
	var err error
	switch method {
	case Normal:
		sc.solveNormal(a, in, sc.seededRNG(e.normalSeed(in)))
		return st, nil
	case Greedy:
		sc.solveGreedy(a, in)
		return st, nil
	case MarginalGreedy:
		sc.solveMarginalGreedy(a, in, nil)
		return st, nil
	case GreedyCapped:
		if nc.active() {
			sc.solveGreedyCapped(a, in, nc)
		} else {
			sc.solveGreedy(a, in)
		}
		return st, nil
	case DP:
		return st, sc.solveDP(ctx, a, in)
	case ILPI:
		var sol *ilp.Solution
		sol, err = sc.solveILPI(in, bnbOpts(), a)
		if sol != nil {
			st.nodes, st.pivots = sol.Nodes, sol.LPPivots
		}
	case ILPII:
		_, st, err = sc.solveILPII(ctx, in, nc, a, bnbOpts)
	default:
		return st, fmt.Errorf("core: unknown method %v", method)
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return solveStats{}, ctxErr
	}
	if err != nil && method == ILPII && nc.active() {
		clear(a)
		sc.solveGreedyCapped(a, in, nc)
		return st, nil
	}
	return st, err
}

// tileOpts copies the run-wide ILP options into the scratch's per-tile copy
// and wires the observability hook for this tile.
func (e *Engine) tileOpts(ctx context.Context, sc *SolveScratch, base *ilp.Options, in *Instance, lane int, span obs.SpanID) *ilp.Options {
	opts := sc.withOpts(base)
	e.addProgress(ctx, opts, in, lane, span)
	return opts
}

// Run solves every instance with the chosen method and assembles the fill.
// The instances must come from this engine's Instances call. With
// Config.Workers > 1 the tiles are solved concurrently; the result is
// identical to the serial run.
func (e *Engine) Run(method Method, instances []*Instance) (*Result, error) {
	return e.RunContext(context.Background(), method, instances)
}

// RunContext is Run with cancellation: the context is checked at every tile
// boundary (and, for the ILP methods, per branch-and-bound node), so a
// cancelled or deadline-expired context stops the remaining solver work and
// returns an error wrapping ctx.Err(). A partially solved run yields no
// partial Result. Under Config.NetCap the capped methods may place fewer
// features than requested: GreedyCapped always, ILP-II on a tile where no
// assignment of the full fill amount fits the cap (see solveTile).
func (e *Engine) RunContext(ctx context.Context, method Method, instances []*Instance) (*Result, error) {
	var nc *NetCap
	if e.Cfg.NetCap > 0 {
		nc = &NetCap{MaxAddedDelay: e.Cfg.NetCap}
	}
	return e.run(ctx, method, instances, nc)
}

// run is the engine's one tile loop, shared by RunContext, RunBudgeted and
// RunMVDC: solve every instance under the per-net cap nc (nil: uncapped),
// fanned out across Config.Workers and served from the memo where possible,
// then evaluate, account and place in instance order.
func (e *Engine) run(ctx context.Context, method Method, instances []*Instance, nc *NetCap) (*Result, error) {
	res := &Result{
		Method: method,
		Fill:   &layout.FillSet{Grid: e.Grid, Layer: e.Cfg.Layer},
		PerNet: make([]float64, len(e.L.Nets)),
	}
	start := time.Now()
	tr := e.Cfg.Trace
	run := tr.Start("phase", "run", 0, 0)
	run.Arg("method", int64(method))
	run.Arg("tiles", int64(len(instances)))
	defer run.End()

	type outcome struct {
		a       Assignment
		st      solveStats
		memoHit bool
		dur     time.Duration // this instance's solve time
		err     error
	}
	outs := make([]outcome, len(instances))

	memo := e.memo
	if memo != nil && !memoizable(method, &e.Cfg.ILPOpts) {
		memo = nil
	}
	workers := workerCount(e.Cfg.Workers, len(instances))
	// One zeroed slab carved into per-tile assignment slices: a single
	// allocation per run instead of one per tile.
	totalCols, totalF := 0, 0
	for _, in := range instances {
		totalCols += len(in.Columns)
		totalF += in.F
	}
	// Every method places at most F features per tile, so the fill list is
	// sized once.
	if totalF > 0 {
		res.Fill.Fills = make([]layout.Fill, 0, totalF)
	}
	slab := make([]int, totalCols)
	off := 0
	for i, in := range instances {
		k := len(in.Columns)
		outs[i].a = slab[off : off+k : off+k]
		off += k
	}
	scs := e.getScratches(workers)
	defer e.putScratches(scs)
	// One cancellation closure for the whole run, not one per tile.
	baseOpts := e.ilpOpts(ctx)
	fc := e.fingerprintConfig(method, nc)
	// Capped methods may under-place; everything else must hit F.
	mayUnderPlace := method == GreedyCapped || (method == ILPII && nc.active())
	solveOne := func(worker, i int) {
		in := instances[i]
		lane := 1 + worker
		tile := tr.Start("tile", "tile", lane, run.ID())
		tile.Arg("i", int64(in.I))
		tile.Arg("j", int64(in.J))
		solveStart := time.Now()
		solve := tr.Start("solve", "solve", lane, tile.ID())
		sc := scs[worker]
		var st solveStats
		var err error
		hit := false
		var key memoKey
		if memo != nil {
			key, sc.fpBuf, sc.fpNets = fingerprintInstance(sc.fpBuf, sc.fpNets, in, fc)
			if ent := memo.lookup(key); ent != nil {
				// Replay the cached solve: the assignment bytes and every
				// deterministic by-product match what a fresh solve of this
				// pattern produces, so downstream accounting is bit-identical.
				copy(outs[i].a, ent.a)
				st = solveStats{nodes: ent.nodes, pivots: ent.pivots,
					incRepaired: ent.incRepaired, incDropped: ent.incDropped}
				hit = true
			}
		}
		if !hit {
			st, err = e.solveTile(ctx, method, in, sc, baseOpts, nc, outs[i].a, lane, solve.ID())
			if memo != nil && err == nil {
				memo.store(key, outs[i].a, st)
			}
		}
		solve.Arg("nodes", int64(st.nodes))
		solve.Arg("pivots", int64(st.pivots))
		solve.End()
		dur := time.Since(solveStart)
		tile.End()
		outs[i].st, outs[i].memoHit, outs[i].dur, outs[i].err = st, hit, dur, err
		if lg := e.Cfg.Logger; lg != nil && err == nil &&
			e.Cfg.SlowTile > 0 && dur >= e.Cfg.SlowTile {
			lg.Warn("slow tile", "i", in.I, "j", in.J, "method", method.String(),
				"dur", dur, "nodes", st.nodes, "pivots", st.pivots)
		}
		if cb := e.Cfg.OnTile; cb != nil && err == nil {
			cb(TileEvent{
				I: in.I + e.Cfg.TileOffI, J: in.J + e.Cfg.TileOffJ,
				MemoHit: hit, Nodes: st.nodes, LPPivots: st.pivots, Dur: dur,
			})
		}
	}
	if workers > 1 {
		// Hardest tiles first (LPT): the predicted-cost order only decides
		// who starts when — each tile's solve and the reduction below are
		// order-independent, so results stay bit-identical to serial.
		fanOutOrder(workers, len(instances), costOrder(instances), solveOne)
	} else {
		for i := range instances {
			solveOne(0, i)
		}
	}

	// Deterministic reduction in instance order: regardless of how the
	// fan-out interleaved or reordered the solves above, every accumulation
	// below walks instances[0..n) in sequence, so serial and parallel runs
	// produce bit-identical Results.
	var placeRows []int
	for i, in := range instances {
		o := outs[i]
		if o.err != nil {
			return nil, fmt.Errorf("core: tile (%d,%d): %w", in.I, in.J, o.err)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %v run interrupted: %w", method, err)
		}
		res.ILPNodes += o.st.nodes
		res.LPPivots += o.st.pivots
		if memo != nil {
			if o.memoHit {
				res.MemoHits++
			} else {
				res.MemoMisses++
			}
		}
		if o.st.incRepaired {
			res.IncumbentsRepaired++
		}
		if o.st.incDropped {
			res.IncumbentsDropped++
		}
		res.Phases.Solve += o.dur
		res.SlowestTiles = insertSlowTile(res.SlowestTiles, TileTime{
			I: in.I + e.Cfg.TileOffI, J: in.J + e.Cfg.TileOffJ,
			Dur: o.dur, Nodes: o.st.nodes,
		})
		placed := 0
		for _, m := range o.a {
			placed += m
		}
		if !mayUnderPlace {
			if err := in.Valid(o.a); err != nil {
				return nil, fmt.Errorf("core: %v on tile (%d,%d): %w", method, in.I, in.J, err)
			}
		}
		evalStart := time.Now()
		u, w, err := in.Evaluate(o.a)
		if err == nil {
			res.Unweighted += u
			res.Weighted += w
			res.Requested += in.F
			res.Placed += placed
			res.Tiles++
			err = e.accumulatePerNet(res.PerNet, in, o.a)
		}
		res.Phases.Evaluate += time.Since(evalStart)
		if err != nil {
			return nil, fmt.Errorf("core: %v on tile (%d,%d): %w", method, in.I, in.J, err)
		}
		placeStart := time.Now()
		err = e.place(res.Fill, in, o.a, &placeRows)
		res.Phases.Place += time.Since(placeStart)
		if err != nil {
			return nil, fmt.Errorf("core: %v on tile (%d,%d): %w", method, in.I, in.J, err)
		}
	}
	res.CPU = res.Phases.Solve
	res.Wall = time.Since(start)
	res.Phases.Preprocess = e.Prep.Total
	return res, nil
}

// insertSlowTile inserts t into the slowest-first top-K list, keeping at
// most MaxSlowestTiles entries. Ties keep the earlier (instance-order)
// entry first, so runs with equal durations stay deterministic.
func insertSlowTile(list []TileTime, t TileTime) []TileTime {
	pos := len(list)
	for pos > 0 && t.Dur > list[pos-1].Dur {
		pos--
	}
	if pos >= MaxSlowestTiles {
		return list
	}
	if len(list) < MaxSlowestTiles {
		list = append(list, TileTime{})
	}
	copy(list[pos+1:], list[pos:])
	list[pos] = t
	return list
}

// accumulatePerNet adds each bounding net's unweighted delay contribution,
// using the switch-factor-scaled resistances so the per-net totals sum to
// exactly what Evaluate reports. An assignment exceeding a column's cost
// curve indicates a capacity-extraction bug and is reported as an error.
func (e *Engine) accumulatePerNet(perNet []float64, in *Instance, a Assignment) error {
	for k, m := range a {
		cv := &in.Columns[k]
		if m <= 0 || cv.DeltaC == nil {
			continue
		}
		if m >= len(cv.DeltaC) {
			return fmt.Errorf("core: column %d assignment %d exceeds cost curve (max %d)", k, m, len(cv.DeltaC)-1)
		}
		dc := cv.DeltaC[m]
		if cv.NetLow >= 0 {
			perNet[cv.NetLow] += dc * cv.REffLow
		}
		if cv.NetHigh >= 0 {
			perNet[cv.NetHigh] += dc * cv.REffHigh
		}
	}
	return nil
}

// appendFreeRows appends to buf the first m of the column's free rows in
// placement order: nearest the gap's vertical center first, the lower row
// first at equal distance. A row's offset from the center grows strictly
// with the row, so two pointers walk outward from the first row at or above
// the center, skip blocked rows and take the nearer side at each step: the
// (distance, row) order in one pass with no sort, stopping after m rows
// (fewer when the column has fewer free rows).
func (e *Engine) appendFreeRows(buf []int, cv *ColumnVar, m int) []int {
	col := cv.Col
	// Row r's feature center sits SiteY(r) - c above the gap center.
	c := (col.YLo+col.YHi)/2 - e.Rule.Feature/2
	hi := col.RowLo
	for hi < col.RowHi && e.Grid.SiteY(hi) < c {
		hi++
	}
	lo := hi - 1
	for taken := 0; taken < m; taken++ {
		for lo >= col.RowLo && e.Occ.Blocked(col.Col, lo) {
			lo--
		}
		for hi < col.RowHi && e.Occ.Blocked(col.Col, hi) {
			hi++
		}
		switch {
		case lo >= col.RowLo && (hi >= col.RowHi || c-e.Grid.SiteY(lo) <= e.Grid.SiteY(hi)-c):
			buf = append(buf, lo)
			lo--
		case hi < col.RowHi:
			buf = append(buf, hi)
			hi++
		default:
			return buf
		}
	}
	return buf
}

// place materializes an assignment into fill features: the m features of a
// column take the free rows nearest the gap's vertical center (the block
// abstraction of the capacitance model grows symmetrically), walked lazily
// per placed column, so a column with no fill never reads the occupancy. An
// assignment exceeding a column's free sites indicates a capacity-extraction
// bug and is reported as an error. rowBuf is a caller-owned scratch slice
// reused across columns (and calls) for the rows and their sort.
func (e *Engine) place(fs *layout.FillSet, in *Instance, a Assignment, rowBuf *[]int) error {
	for k, m := range a {
		if m <= 0 {
			continue
		}
		cv := &in.Columns[k]
		rows := e.appendFreeRows((*rowBuf)[:0], cv, m)
		*rowBuf = rows
		if len(rows) < m {
			return fmt.Errorf("core: column %d assignment %d exceeds %d free sites", k, m, len(rows))
		}
		slices.Sort(rows)
		for _, r := range rows {
			fs.Fills = append(fs.Fills, layout.Fill{Col: cv.Col.Col, Row: r})
		}
	}
	return nil
}
