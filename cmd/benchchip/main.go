// Command benchchip benchmarks the chip-scale solve path end-to-end and
// writes the results as JSON:
//
//	benchchip -o BENCH_chip.json              # full 1000x1000-tile chip
//	benchchip -short                          # 100x100-tile chip (CI)
//	benchchip -check                          # enforce the dedup gates
//
// It generates a synthetic repeating-pattern chip (testcases.GenerateChip),
// budgets fill with the FFT effective-density pass, and solves every tile
// twice: once with the content-hash solve memo disabled and once with a
// fresh memo. Instances are built and solved in stripes of tile rows so the
// peak footprint stays bounded by the stripe, not the chip. The two runs
// must be bit-identical — fill placements (order-sensitive FNV-1a over the
// placed sites), measured delay totals, per-net accounting, and solver work
// counters are all compared — and the memo run's dedup is summarized as the
// pattern repetition factor (tiles solved per distinct pattern stored).
//
// With -check the run exits 1 unless the memo-on run solved each distinct
// pattern exactly once (its misses equal the stored entries; serial runs
// only, since concurrent workers may race two copies of a pattern past the
// lookup), the pattern repetition reaches 100x, and the bit-identity held.
// The memo-off/memo-on wall ratio is recorded, not gated.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"pilfill/internal/core"
	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/server"
	"pilfill/internal/testcases"
)

// The benchchip dissection: 12800 nm windows at r = 4 give 3200 nm tiles,
// exactly one chip cell per 4x1 tile group.
const (
	windowNM = 12800
	rFactor  = 4
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchchip: "+format+"\n", args...)
	os.Exit(1)
}

// ChipInfo describes the generated layout and its dissection.
type ChipInfo struct {
	TilesX   int   `json:"tiles_x"`
	TilesY   int   `json:"tiles_y"`
	Tiles    int   `json:"tiles"`
	Cells    int   `json:"cells"`
	Nets     int   `json:"nets"`
	WindowNM int64 `json:"window_nm"`
	R        int   `json:"r"`
	TileNM   int64 `json:"tile_nm"`
	DieNM    int64 `json:"die_nm"`
}

// BudgetInfo describes the FFT effective-density budgeting pass.
type BudgetInfo struct {
	Kernel       string  `json:"kernel"`
	TargetMin    float64 `json:"target_min"`
	MaxDensity   float64 `json:"max_density"`
	AchievedMin  float64 `json:"achieved_min_effective"`
	TotalFill    int     `json:"total_fill_features"`
	BudgetedTile int     `json:"budgeted_tiles"`
}

// ModeStats is one measured mode (memo on or off) over the whole chip.
type ModeStats struct {
	RunWallMS  float64 `json:"run_wall_ms"`
	SolveMS    float64 `json:"solve_ms"`
	EvaluateMS float64 `json:"evaluate_ms"`
	PlaceMS    float64 `json:"place_ms"`
	BuildMS    float64 `json:"build_ms"`
	Tiles      int     `json:"tiles"`
	Requested  int     `json:"requested"`
	Placed     int     `json:"placed"`
	ILPNodes   int     `json:"ilp_nodes"`
	LPPivots   int     `json:"lp_pivots"`
	MemoHits   int     `json:"memo_hits"`
	MemoMisses int     `json:"memo_misses"`
	Repaired   int     `json:"incumbents_repaired,omitempty"`
	Dropped    int     `json:"incumbents_dropped,omitempty"`
	FillHash   string  `json:"fill_hash"`

	unweighted, weighted float64
	fillCount            int
	perNetHash           uint64
}

// MemoInfo snapshots the fresh memo after the memo-on run.
type MemoInfo struct {
	Hits              uint64  `json:"hits"`
	Misses            uint64  `json:"misses"`
	Stored            uint64  `json:"stored"`
	Entries           int     `json:"entries"`
	PatternRepetition float64 `json:"pattern_repetition"` // tiles solved per stored pattern
}

// EndToEnd breaks down the dedup-on pipeline's wall time.
type EndToEnd struct {
	GenerateMS float64 `json:"generate_ms"`
	PrepareMS  float64 `json:"prepare_ms"` // occupancy + RC analysis + slack extraction
	BudgetMS   float64 `json:"budget_ms"`  // FFT effective-density budgeting
	BuildMS    float64 `json:"build_ms"`   // instance construction (all stripes)
	RunMS      float64 `json:"run_ms"`     // solve + evaluate + place (all stripes)
	TotalSec   float64 `json:"total_seconds"`
}

// Doc is the BENCH_chip.json document.
type Doc struct {
	Chip         ChipInfo   `json:"chip"`
	Method       string     `json:"method"`
	Workers      int        `json:"workers"`
	Stripe       int        `json:"stripe_rows"`
	Budget       BudgetInfo `json:"budget"`
	MemoOff      ModeStats  `json:"memo_off"`
	MemoOn       ModeStats  `json:"memo_on"`
	Memo         MemoInfo   `json:"memo"`
	SpeedupWall  float64    `json:"speedup_wall"` // recorded, not gated
	BitIdentical bool       `json:"bit_identical"`
	EndToEnd     EndToEnd   `json:"end_to_end_dedup_on"`
	MinRepeat    float64    `json:"min_pattern_repetition"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runMode solves the whole chip in stripes of tile rows on one engine and
// aggregates the per-stripe Results. The aggregation order is the stripe
// order, which is deterministic, so two modes producing bit-identical
// per-stripe Results aggregate to bit-identical ModeStats.
func runMode(eng *core.Engine, method core.Method, master density.Budget, stripe, nets int) (*ModeStats, error) {
	nx := len(master)
	ny := len(master[0])
	zeroRow := make([]int, ny)
	masked := make(density.Budget, nx)
	for i := range masked {
		masked[i] = zeroRow
	}
	agg := &ModeStats{}
	perNet := make([]float64, nets)
	fills := fnv.New64a()
	var buf [16]byte
	for s := 0; s < nx; s += stripe {
		hi := min(s+stripe, nx)
		for i := s; i < hi; i++ {
			masked[i] = master[i]
		}
		buildStart := time.Now()
		instances, err := eng.Instances(masked)
		agg.BuildMS += ms(time.Since(buildStart))
		for i := s; i < hi; i++ {
			masked[i] = zeroRow
		}
		if err != nil {
			return nil, err
		}
		if len(instances) == 0 {
			continue
		}
		res, err := eng.Run(method, instances)
		if err != nil {
			return nil, err
		}
		agg.RunWallMS += ms(res.Wall)
		agg.SolveMS += ms(res.Phases.Solve)
		agg.EvaluateMS += ms(res.Phases.Evaluate)
		agg.PlaceMS += ms(res.Phases.Place)
		agg.Tiles += res.Tiles
		agg.Requested += res.Requested
		agg.Placed += res.Placed
		agg.ILPNodes += res.ILPNodes
		agg.LPPivots += res.LPPivots
		agg.MemoHits += res.MemoHits
		agg.MemoMisses += res.MemoMisses
		agg.Repaired += res.IncumbentsRepaired
		agg.Dropped += res.IncumbentsDropped
		agg.unweighted += res.Unweighted
		agg.weighted += res.Weighted
		for n, v := range res.PerNet {
			perNet[n] += v
		}
		agg.fillCount += len(res.Fill.Fills)
		for _, f := range res.Fill.Fills {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(int64(f.Col)))
			binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(f.Row)))
			fills.Write(buf[:])
		}
	}
	agg.FillHash = fmt.Sprintf("%016x", fills.Sum64())
	pn := fnv.New64a()
	for _, v := range perNet {
		binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(v))
		pn.Write(buf[:8])
	}
	agg.perNetHash = pn.Sum64()
	return agg, nil
}

// identical reports whether two modes produced bit-identical placements and
// accounting. Memo counters are excluded: they are the one field allowed to
// differ between modes.
func identical(a, b *ModeStats) bool {
	return a.FillHash == b.FillHash &&
		a.perNetHash == b.perNetHash &&
		a.fillCount == b.fillCount &&
		math.Float64bits(a.unweighted) == math.Float64bits(b.unweighted) &&
		math.Float64bits(a.weighted) == math.Float64bits(b.weighted) &&
		a.Tiles == b.Tiles && a.Requested == b.Requested && a.Placed == b.Placed &&
		a.ILPNodes == b.ILPNodes && a.LPPivots == b.LPPivots &&
		a.Repaired == b.Repaired && a.Dropped == b.Dropped
}

func main() {
	var (
		tiles    = flag.Int("tiles", 1000, "chip side in tiles (total tiles = side squared; must be a multiple of 4)")
		short    = flag.Bool("short", false, "CI mode: 100x100-tile chip")
		out      = flag.String("o", "BENCH_chip.json", "output JSON path")
		check    = flag.Bool("check", false, "exit 1 unless memo-on misses equal the stored patterns (serial), repetition >= 100x, and runs are bit-identical")
		methodF  = flag.String("method", "ILP-II", "placement method (CLI spelling)")
		stripeF  = flag.Int("stripe", 10, "tile rows of instances built and solved at a time")
		target   = flag.Float64("target", 0.3, "minimum effective density")
		maxDen   = flag.Float64("maxdensity", 0.5, "per-tile density ceiling")
		kernelF  = flag.String("kernel", "elliptic", "effective-density kernel: flat|elliptic|gaussian")
		netCap   = flag.Float64("netcap", 0.0005, "per-net added delay cap in ps (0 = off; the default keeps ILP-II's cap rows active)")
		workers  = flag.Int("workers", 0, "tile-solver workers (0 = serial)")
		quietOut = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *short {
		*tiles = 100
	}
	if *tiles <= 0 || *tiles%4 != 0 {
		fail("-tiles %d must be a positive multiple of 4", *tiles)
	}
	method, ok := server.ParseMethod(*methodF)
	if !ok {
		fail("unknown method %q", *methodF)
	}
	var kind density.KernelKind
	switch *kernelF {
	case "flat":
		kind = density.FlatKernel
	case "elliptic":
		kind = density.EllipticKernel
	case "gaussian":
		kind = density.GaussianKernel
	default:
		fail("unknown kernel %q", *kernelF)
	}
	progress := func(format string, args ...any) {
		if !*quietOut {
			fmt.Fprintf(os.Stderr, "benchchip: "+format+"\n", args...)
		}
	}

	spec := testcases.Chip(*tiles/4, *tiles)
	genStart := time.Now()
	l, err := testcases.GenerateChip(spec)
	if err != nil {
		fail("%v", err)
	}
	genMS := ms(time.Since(genStart))
	dis, err := layout.NewDissection(l.Die, windowNM, rFactor)
	if err != nil {
		fail("%v", err)
	}
	progress("chip %dx%d tiles, %d nets, generated in %.0f ms", dis.NX, dis.NY, len(l.Nets), genMS)

	// Two engines over the same layout: the baseline with the memo disabled
	// and the dedup path with a fresh (non-shared) memo so the stored-entry
	// count measures this chip alone.
	memo := core.NewSolveMemo()
	cfg := core.Config{Seed: 1, Workers: *workers, NetCap: *netCap * 1e-12}
	cfgOff, cfgOn := cfg, cfg
	cfgOff.NoSolveMemo = true
	cfgOn.Memo = memo
	engOff, err := core.NewEngine(l, dis, spec.Rule, cfgOff)
	if err != nil {
		fail("%v", err)
	}
	engOn, err := core.NewEngine(l, dis, spec.Rule, cfgOn)
	if err != nil {
		fail("%v", err)
	}
	progress("engine prep %.0f ms (analyze %.0f, extract %.0f)",
		ms(engOn.Prep.Total), ms(engOn.Prep.Analyze), ms(engOn.Prep.Extract))

	budgetStart := time.Now()
	grid := density.NewGrid(l, dis, engOn.Occ, 0)
	budget, achieved, err := density.FFTBudget(grid, density.NewKernel(kind, rFactor), density.FFTBudgetOptions{
		TargetMin:  *target,
		MaxDensity: *maxDen,
	})
	if err != nil {
		fail("budget: %v", err)
	}
	budgetMS := ms(time.Since(budgetStart))
	budgeted := 0
	for i := range budget {
		for j := range budget[i] {
			if budget[i][j] > 0 {
				budgeted++
			}
		}
	}
	progress("FFT budget %.0f ms: %d features over %d tiles, min effective density %.4f",
		budgetMS, budget.Total(), budgeted, achieved)

	offStart := time.Now()
	off, err := runMode(engOff, method, budget, *stripeF, len(l.Nets))
	if err != nil {
		fail("memo-off run: %v", err)
	}
	progress("memo-off: run %.0f ms (solve %.0f) over %d tiles in %.0f ms total",
		off.RunWallMS, off.SolveMS, off.Tiles, ms(time.Since(offStart)))

	onStart := time.Now()
	on, err := runMode(engOn, method, budget, *stripeF, len(l.Nets))
	if err != nil {
		fail("memo-on run: %v", err)
	}
	progress("memo-on: run %.0f ms (solve %.0f), %d hits / %d misses in %.0f ms total",
		on.RunWallMS, on.SolveMS, on.MemoHits, on.MemoMisses, ms(time.Since(onStart)))

	stats := memo.Stats()
	repetition := 0.0
	if stats.Entries > 0 {
		repetition = float64(on.Tiles) / float64(stats.Entries)
	}
	speedup := 0.0
	if on.RunWallMS > 0 {
		speedup = off.RunWallMS / on.RunWallMS
	}
	doc := &Doc{
		Chip: ChipInfo{
			TilesX: dis.NX, TilesY: dis.NY, Tiles: dis.NX * dis.NY,
			Cells: spec.CellsX * spec.CellsY, Nets: len(l.Nets),
			WindowNM: windowNM, R: rFactor, TileNM: dis.Tile, DieNM: l.Die.X2,
		},
		Method:  method.String(),
		Workers: *workers,
		Stripe:  *stripeF,
		Budget: BudgetInfo{
			Kernel: kind.String(), TargetMin: *target, MaxDensity: *maxDen,
			AchievedMin: achieved, TotalFill: budget.Total(), BudgetedTile: budgeted,
		},
		MemoOff: *off,
		MemoOn:  *on,
		Memo: MemoInfo{
			Hits: stats.Hits, Misses: stats.Misses, Stored: stats.Stored,
			Entries: stats.Entries, PatternRepetition: repetition,
		},
		SpeedupWall:  speedup,
		BitIdentical: identical(off, on),
		EndToEnd: EndToEnd{
			GenerateMS: genMS,
			PrepareMS:  ms(engOn.Prep.Analyze + engOn.Prep.Extract),
			BudgetMS:   budgetMS,
			BuildMS:    on.BuildMS,
			RunMS:      on.RunWallMS,
			TotalSec: (genMS + ms(engOn.Prep.Analyze+engOn.Prep.Extract) +
				budgetMS + on.BuildMS + on.RunWallMS) / 1e3,
		},
		MinRepeat: 100,
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail("%v", err)
	}
	progress("speedup %.1fx, pattern repetition %.0fx (%d entries), bit-identical %v -> %s",
		speedup, repetition, stats.Entries, doc.BitIdentical, *out)

	if *check {
		if !doc.BitIdentical {
			fail("memo-on and memo-off runs are not bit-identical")
		}
		if *workers <= 1 && on.MemoMisses != stats.Entries {
			fail("memo-on run missed %d times for %d stored patterns", on.MemoMisses, stats.Entries)
		}
		if repetition < doc.MinRepeat {
			fail("pattern repetition %.0fx below the %.0fx floor", repetition, doc.MinRepeat)
		}
	}
}
