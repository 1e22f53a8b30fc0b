// Command benchengine benchmarks the end-to-end fill engine and writes the
// results as JSON:
//
//	benchengine -o BENCH_engine.json          # full case set
//	benchengine -short                        # single case (CI)
//	benchengine -check                        # enforce the allocation and certificate gates
//
// For every benchmark case and every placement method it measures the
// engine's steady-state solve path (worker-local SolveScratch borrowed from
// the engine's pool, reused branch-and-bound searcher, assignment slab):
// warm throughput (tiles/sec, ns/tile) and allocation profile (allocs/op,
// B/op per tile). Every measured run must be bit-identical to the warm-up
// run — any divergence fails the run.
//
// A second experiment sweeps the worker count for the ILP-II method and
// records the wall-clock scaling curve against the makespan lower bound
// max(solve CPU / workers, longest single solve): how close the cost-ordered
// (LPT) work queue gets to perfect scheduling.
//
// With -check the run exits 1 unless every method allocates at most
// MaxAllocsPerOp times per tile solve on every case, ILP-II and DualAscent
// both settle every tile of every case by certificate (0 branch-and-bound
// nodes: the cases are uncapped, floating-fill curves are convex, so the
// hull bound proves the warm start optimal) with bit-equal fills, and every
// identity check passed. The DualAscent ns/tile ratios are recorded, not
// gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"pilfill/internal/core"
	"pilfill/internal/harness"
	"pilfill/internal/ilp"
	"pilfill/internal/obs"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchengine: "+format+"\n", args...)
	os.Exit(1)
}

// benchCase names one harness grid point.
type benchCase struct {
	Testcase string
	W, R     int
}

func (c benchCase) name() string { return fmt.Sprintf("%s/%d/%d", c.Testcase, c.W, c.R) }

var methods = []core.Method{
	core.Normal, core.Greedy, core.MarginalGreedy, core.DP, core.ILPI, core.ILPII,
	core.DualAscent,
}

// MaxAllocsPerOp is the -check ceiling on any method's steady-state heap
// allocations per tile solve: the warm path allocates only per-run fixed
// overhead (result, slab, fill growth), a small fraction of one per tile.
const MaxAllocsPerOp = 1.0

// PathStats is the measured steady-state engine path over a case: per-tile
// time and allocation figures averaged over the measurement runs.
type PathStats struct {
	NSPerTile float64 `json:"ns_per_tile"`
	// SolveNSPerTile is the solve phase alone (Result.CPU over tiles): the
	// share of NSPerTile a method can actually influence, excluding the
	// placement/accounting overhead every method pays identically.
	SolveNSPerTile float64 `json:"solve_ns_per_tile"`
	TilesPerSec    float64 `json:"tiles_per_sec"`
	AllocsPerOp    float64 `json:"allocs_per_op"` // heap allocations per tile solve
	BytesPerOp     float64 `json:"bytes_per_op"`  // heap bytes per tile solve
	SolveCPUNS     int64   `json:"solve_cpu_ns"`
	WallNS         int64   `json:"wall_ns"`
	TotalAllocs    uint64  `json:"total_allocs"`
	TotalBytes     uint64  `json:"total_bytes"`
	MeasuredRuns   int     `json:"measured_runs"`
}

// MethodResult is one method's steady-state measurement.
type MethodResult struct {
	Method    string    `json:"method"`
	Pooled    PathStats `json:"pooled"`
	Identical bool      `json:"identical"` // every measured run == warm-up run bit-for-bit
}

// ScalePoint is one worker count on the ILP-II scaling curve.
type ScalePoint struct {
	Workers    int   `json:"workers"`
	WallNS     int64 `json:"wall_ns"`
	SolveCPUNS int64 `json:"solve_cpu_ns"`
	LongestNS  int64 `json:"longest_solve_ns"`
	// LowerBoundNS is the best achievable makespan for this worker count:
	// max(total solve CPU / workers, longest single solve).
	LowerBoundNS int64 `json:"lower_bound_ns"`
	// Efficiency is lower bound over measured wall (1.0 = perfect schedule;
	// includes reduction/placement overhead, so < 1 in practice).
	Efficiency float64 `json:"efficiency"`
}

// CaseResult is the JSON record of one benchmark case.
type CaseResult struct {
	Case    string         `json:"case"`
	Tiles   int            `json:"tiles"`
	Methods []MethodResult `json:"methods"`
	Scaling []ScalePoint   `json:"scaling_ilp2,omitempty"`
	// ILPIINodes and DualNodes are the branch-and-bound nodes of one ILP-II
	// and one DualAscent run; DualEqualsILPII reports that the two runs'
	// results (fill, delays, per-net accounting, search effort) are
	// bit-equal. Under -check both node counts must be 0 and the results
	// equal.
	ILPIINodes      int  `json:"ilp2_nodes"`
	DualNodes       int  `json:"dual_nodes"`
	DualEqualsILPII bool `json:"dual_equals_ilp2"`
}

// Output is the BENCH_engine.json document.
type Output struct {
	Generated string       `json:"generated"`
	Short     bool         `json:"short"`
	GoMaxProc int          `json:"gomaxprocs"`
	Cases     []CaseResult `json:"cases"`
	// Worst-case (maximum) allocs/op over every method and case, held to
	// MaxAllocsPerOp under -check.
	MaxAllocsPerOp float64 `json:"max_allocs_per_op"`
	// Worst-case (minimum) DualAscent ns/tile reduction over the ILP methods'
	// pooled paths, total and solve phase. Recorded, not gated: ILP-II now
	// certifies its warm start with the same hull bound DualAscent uses, so
	// the two run nearly the same work and the ratio measures the
	// difference between their heuristic warm-start passes, not a mechanism.
	DualNSReductionILPI       float64 `json:"dual_ns_reduction_vs_ilp1"`
	DualNSReductionILPII      float64 `json:"dual_ns_reduction_vs_ilp2"`
	DualSolveNSReductionILPII float64 `json:"dual_solve_ns_reduction_vs_ilp2"`
}

// identical compares everything deterministic that two runs report.
func identical(a, b *core.Result) bool {
	if a.Unweighted != b.Unweighted || a.Weighted != b.Weighted ||
		a.Placed != b.Placed || a.Requested != b.Requested || a.Tiles != b.Tiles ||
		a.ILPNodes != b.ILPNodes || a.LPPivots != b.LPPivots ||
		a.DualFallbacks != b.DualFallbacks {
		return false
	}
	for n := range a.PerNet {
		if a.PerNet[n] != b.PerNet[n] {
			return false
		}
	}
	if len(a.Fill.Fills) != len(b.Fill.Fills) {
		return false
	}
	for i := range a.Fill.Fills {
		if a.Fill.Fills[i] != b.Fill.Fills[i] {
			return false
		}
	}
	return true
}

// measurePath runs the engine `runs` times over the instances and averages
// time and allocation per tile. The engine is run once beforehand to warm
// caches and the scratch buffers so the figures are steady-state; identical
// reports whether every measured run matched that warm-up run bit for bit.
// Measurement is serial (Workers = 1) so the allocation deltas are not
// polluted by scheduler noise and ns/tile is comparable across machines with
// different core counts.
func measurePath(eng *core.Engine, m core.Method, instances []*core.Instance, runs int) (st PathStats, ref *core.Result, same bool, err error) {
	eng.Cfg.Workers = 1
	ref, err = eng.Run(m, instances) // warm-up; also the identity-check reference
	if err != nil {
		return PathStats{}, nil, false, err
	}
	results := make([]*core.Result, runs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var cpu time.Duration
	for i := 0; i < runs; i++ {
		r, err := eng.Run(m, instances)
		if err != nil {
			return PathStats{}, nil, false, err
		}
		cpu += r.CPU
		results[i] = r
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	same = true
	for _, r := range results {
		same = same && identical(r, ref)
	}

	ops := float64(runs) * float64(len(instances))
	st = PathStats{
		TotalAllocs:  after.Mallocs - before.Mallocs,
		TotalBytes:   after.TotalAlloc - before.TotalAlloc,
		WallNS:       wall.Nanoseconds(),
		SolveCPUNS:   cpu.Nanoseconds(),
		MeasuredRuns: runs,
	}
	st.AllocsPerOp = float64(st.TotalAllocs) / ops
	st.BytesPerOp = float64(st.TotalBytes) / ops
	st.NSPerTile = float64(wall.Nanoseconds()) / ops
	st.SolveNSPerTile = float64(cpu.Nanoseconds()) / ops
	st.TilesPerSec = ops / wall.Seconds()
	return st, ref, same, nil
}

// scalingCurve sweeps worker counts 1, 2, 4, ... GOMAXPROCS for ILP-II and
// reports wall clock against the makespan lower bound.
func scalingCurve(eng *core.Engine, instances []*core.Instance) ([]ScalePoint, error) {
	var points []ScalePoint
	maxW := runtime.GOMAXPROCS(0)
	for w := 1; ; w *= 2 {
		if w > maxW {
			break
		}
		eng.Cfg.Workers = w
		if _, err := eng.Run(core.ILPII, instances); err != nil { // warm
			return nil, err
		}
		best := ScalePoint{Workers: w, WallNS: math.MaxInt64}
		for i := 0; i < 3; i++ {
			res, err := eng.Run(core.ILPII, instances)
			if err != nil {
				return nil, err
			}
			if res.Wall.Nanoseconds() < best.WallNS {
				best.WallNS = res.Wall.Nanoseconds()
				best.SolveCPUNS = res.CPU.Nanoseconds()
				best.LongestNS = res.LongestSolve.Nanoseconds()
			}
		}
		lb := best.SolveCPUNS / int64(best.Workers)
		if best.LongestNS > lb {
			lb = best.LongestNS
		}
		best.LowerBoundNS = lb
		if best.WallNS > 0 {
			best.Efficiency = float64(lb) / float64(best.WallNS)
		}
		points = append(points, best)
		if w == maxW {
			break
		}
		if w*2 > maxW {
			w = maxW / 2 // land exactly on GOMAXPROCS next iteration
		}
	}
	eng.Cfg.Workers = 0
	return points, nil
}

func runCase(c benchCase, runs int, short bool) (CaseResult, error) {
	// The solve memo would collapse repeated runs into cache replays and
	// hide the allocation behavior under measurement, so it stays off here.
	eng, instances, err := harness.BuildInstances(c.Testcase, c.W, c.R, core.Config{
		Seed:        1,
		ILPOpts:     ilp.Options{MaxNodes: 20000},
		NoSolveMemo: true,
	})
	if err != nil {
		return CaseResult{}, err
	}
	res := CaseResult{Case: c.name(), Tiles: len(instances)}
	var ilp2, dual *core.Result
	for _, m := range methods {
		pooled, ref, same, err := measurePath(eng, m, instances, runs)
		if err != nil {
			return res, fmt.Errorf("%s %v: %w", c.name(), m, err)
		}
		if !same {
			return res, fmt.Errorf("%s %v: warm runs diverge from the warm-up run", c.name(), m)
		}
		switch m {
		case core.ILPII:
			ilp2 = ref
		case core.DualAscent:
			dual = ref
		}
		mr := MethodResult{Method: m.String(), Pooled: pooled, Identical: same}
		res.Methods = append(res.Methods, mr)
		fmt.Fprintf(os.Stderr, "%-10s %-15s %8.0f ns/tile %8.3f allocs/op %9.0f B/op\n",
			res.Case, mr.Method, pooled.NSPerTile, pooled.AllocsPerOp, pooled.BytesPerOp)
	}
	res.ILPIINodes, res.DualNodes = ilp2.ILPNodes, dual.ILPNodes
	res.DualEqualsILPII = identical(dual, ilp2)
	fmt.Fprintf(os.Stderr, "%-10s B&B nodes: ILP-II %d, DualAscent %d; DualAscent == ILP-II: %v\n",
		res.Case, res.ILPIINodes, res.DualNodes, res.DualEqualsILPII)
	if !short {
		if res.Scaling, err = scalingCurve(eng, instances); err != nil {
			return res, fmt.Errorf("%s scaling: %w", c.name(), err)
		}
		for _, p := range res.Scaling {
			fmt.Fprintf(os.Stderr, "%-10s ILP-II workers=%-2d wall %8.2fms  lower bound %8.2fms  efficiency %.2f\n",
				res.Case, p.Workers, float64(p.WallNS)/1e6, float64(p.LowerBoundNS)/1e6, p.Efficiency)
		}
	}
	return res, nil
}

func main() {
	var (
		out        = flag.String("o", "BENCH_engine.json", "output file, - for stdout")
		short      = flag.Bool("short", false, "single case, no scaling sweep (CI)")
		check      = flag.Bool("check", false, "exit 1 above the allocs/op ceiling, on any ILP-II/DualAscent B&B node, or on a DualAscent/ILP-II mismatch")
		runs       = flag.Int("runs", 5, "measurement runs per path")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fail("%v", err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "benchengine: cpu profile: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memprofile); err != nil {
				fmt.Fprintf(os.Stderr, "benchengine: heap profile: %v\n", err)
			}
		}()
	}

	cases := []benchCase{{"T1", 20, 8}, {"T1", 32, 4}, {"T2", 20, 8}}
	if *short {
		cases = cases[:1]
	}

	doc := Output{
		Generated:                 time.Now().UTC().Format(time.RFC3339),
		Short:                     *short,
		GoMaxProc:                 runtime.GOMAXPROCS(0),
		DualNSReductionILPI:       math.Inf(1),
		DualNSReductionILPII:      math.Inf(1),
		DualSolveNSReductionILPII: math.Inf(1),
	}
	for _, c := range cases {
		res, err := runCase(c, *runs, *short)
		if err != nil {
			fail("%v", err)
		}
		doc.Cases = append(doc.Cases, res)
		var ilp1NS, ilp2NS, ilp2SolveNS, dualNS, dualSolveNS float64
		for _, mr := range res.Methods {
			doc.MaxAllocsPerOp = math.Max(doc.MaxAllocsPerOp, mr.Pooled.AllocsPerOp)
			switch mr.Method {
			case core.ILPI.String():
				ilp1NS = mr.Pooled.NSPerTile
			case core.ILPII.String():
				ilp2NS = mr.Pooled.NSPerTile
				ilp2SolveNS = mr.Pooled.SolveNSPerTile
			case core.DualAscent.String():
				dualNS = mr.Pooled.NSPerTile
				dualSolveNS = mr.Pooled.SolveNSPerTile
			}
		}
		if dualNS > 0 {
			doc.DualNSReductionILPI = math.Min(doc.DualNSReductionILPI, ilp1NS/dualNS)
			doc.DualNSReductionILPII = math.Min(doc.DualNSReductionILPII, ilp2NS/dualNS)
			doc.DualSolveNSReductionILPII = math.Min(doc.DualSolveNSReductionILPII, ilp2SolveNS/dualSolveNS)
			fmt.Fprintf(os.Stderr, "%-10s DualAscent ns/tile reduction: %.2fx vs ILP-I, %.2fx vs ILP-II (%.2fx solve phase)\n",
				res.Case, ilp1NS/dualNS, ilp2NS/dualNS, ilp2SolveNS/dualSolveNS)
		}
	}

	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fail("%v", err)
	}

	if *check && doc.MaxAllocsPerOp > MaxAllocsPerOp {
		fail("steady-state allocs/op %.3f above the %.1f ceiling", doc.MaxAllocsPerOp, MaxAllocsPerOp)
	}
	for _, c := range doc.Cases {
		switch {
		case !*check:
		case c.ILPIINodes != 0 || c.DualNodes != 0:
			fail("%s: uncapped convex tiles reached branch-and-bound: ILP-II %d nodes, DualAscent %d",
				c.Case, c.ILPIINodes, c.DualNodes)
		case !c.DualEqualsILPII:
			fail("%s: DualAscent result differs from ILP-II's", c.Case)
		}
	}
}
