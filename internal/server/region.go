// region.go runs one sharded region job on a worker: the cluster coordinator
// (internal/cluster) posts a SubmitRequest carrying a RegionSpec — a stripe
// sub-layout DEF plus the owned tile rectangle, its fill budget, and the
// offsets mapping stripe coordinates back to the chip — and the worker solves
// exactly those tiles in SolveRegion, the one region solve the cluster's
// in-process run (cluster.RunChipLocal) shares. Everything the gather needs
// to reassemble a bit-identical whole-chip report rides back in the
// RegionPayload: fills in chip site coordinates in placement order, raw
// float64 delay subtotals (JSON round-trips float64 exactly), and per-net
// subtotals keyed by net name (stripe-local net indices differ from the
// chip's; names are the shared key space).
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"

	"pilfill"
	"pilfill/internal/core"
	"pilfill/internal/density"
	"pilfill/internal/jobqueue"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
)

// RegionSpec is the region-job extension of SubmitRequest: solve only the
// owned tile rectangle of the request's DEF (a stripe sub-layout cut by
// internal/shard) under an externally computed fill budget. Tile indices are
// chip-grid indices; the offsets translate them to the stripe's local grid.
type RegionSpec struct {
	// ID is the deterministic region identifier (shard.Region.ID) echoed in
	// the result payload.
	ID string `json:"id"`
	// WindowNM and R reproduce the chip's dissection on the stripe layout.
	WindowNM int64 `json:"window_nm"`
	R        int   `json:"r"`
	// Layer is the routing-layer index to fill (default 0).
	Layer int `json:"layer,omitempty"`
	// Fill rule in nanometers. The coordinator must send the chip's rule:
	// the site grid is derived from it.
	RuleFeatureNM int64 `json:"rule_feature_nm"`
	RuleGapNM     int64 `json:"rule_gap_nm"`
	RuleBufferNM  int64 `json:"rule_buffer_nm"`
	// TileOffI/TileOffJ translate stripe-local tile indices to chip indices;
	// ColOff/RowOff translate fill-site coordinates the same way.
	TileOffI int `json:"tile_off_i"`
	TileOffJ int `json:"tile_off_j"`
	ColOff   int `json:"col_off"`
	RowOff   int `json:"row_off"`
	// Owned tile rectangle in chip indices: i in [I0, I1), j in [J0, J1).
	I0 int `json:"i0"`
	J0 int `json:"j0"`
	I1 int `json:"i1"`
	J1 int `json:"j1"`
	// Budget is the owned rectangle's fill budget, row-major:
	// Budget[(i-I0)*(J1-J0) + (j-J0)].
	Budget []int `json:"budget"`
}

// RegionPayload is a region job's result: the merge inputs the coordinator
// folds into a whole-chip report. Delay fields carry raw seconds (not the
// display picoseconds of the top-level payload) so the gather's float
// arithmetic sees the exact bits the worker produced.
type RegionPayload struct {
	ID        string `json:"id"`
	Tiles     int    `json:"tiles"`
	Requested int    `json:"requested"`
	Placed    int    `json:"placed"`
	ILPNodes  int    `json:"ilp_nodes,omitempty"`
	LPPivots  int    `json:"lp_pivots,omitempty"`
	Repaired  int    `json:"repaired,omitempty"`
	Dropped   int    `json:"dropped,omitempty"`
	// Unweighted/Weighted are this region's delay subtotals in seconds.
	Unweighted float64 `json:"unweighted"`
	Weighted   float64 `json:"weighted"`
	// PerNet holds each net's added delay in seconds, keyed by net name;
	// zero entries are omitted.
	PerNet map[string]float64 `json:"per_net,omitempty"`
	// Fills are the placed fill sites in chip coordinates ([col, row]), in
	// placement order; FillHash is their FNV-1a hash (FillHasher's layout:
	// little-endian col then row, 16 bytes per fill).
	Fills    [][2]int `json:"fills"`
	FillHash string   `json:"fill_hash"`
	// SlowTiles are the region's slowest tile solves (chip-grid coordinates,
	// slowest first) — the coordinator merges them into the cluster-wide
	// slowest-tiles table on /statusz. Wall-clock measurements: informative,
	// excluded from the bit-identity contract.
	SlowTiles []TileMS `json:"slow_tiles,omitempty"`
}

// TileMS is one slowest-tiles entry: chip tile coordinates, solve duration
// in milliseconds, and the branch-and-bound nodes behind it.
type TileMS struct {
	I     int     `json:"i"`
	J     int     `json:"j"`
	MS    float64 `json:"ms"`
	Nodes int     `json:"nodes,omitempty"`
}

// FillHasher accumulates the FNV-1a fill hash of a fill stream: 16 bytes
// per fill, little-endian col then row. Create with
// NewFillHasher; the coordinator uses the same type to hash the merged fill
// stream, so worker and gather hashes are one implementation.
type FillHasher struct {
	h   hash.Hash64
	buf [16]byte
	n   int
}

// NewFillHasher returns an empty hasher.
func NewFillHasher() *FillHasher { return &FillHasher{h: fnv.New64a()} }

// Add hashes one fill site.
func (fh *FillHasher) Add(col, row int) {
	binary.LittleEndian.PutUint64(fh.buf[0:8], uint64(int64(col)))
	binary.LittleEndian.PutUint64(fh.buf[8:16], uint64(int64(row)))
	fh.h.Write(fh.buf[:])
	fh.n++
}

// Sum returns the hash as 16 lowercase hex digits ("%016x").
func (fh *FillHasher) Sum() string { return fmt.Sprintf("%016x", fh.h.Sum64()) }

// Count returns how many fills were hashed.
func (fh *FillHasher) Count() int { return fh.n }

// validateRegion checks a RegionSpec's internal consistency so malformed
// scatter requests fail with 400 instead of a Failed job — or, for a
// negative budget entry or offset, instead of a job that runs and reports
// fill at the wrong place.
func validateRegion(spec *RegionSpec) error {
	rule := layout.FillRule{Feature: spec.RuleFeatureNM, Gap: spec.RuleGapNM, Buffer: spec.RuleBufferNM}
	if err := rule.Validate(); err != nil {
		return fmt.Errorf("region rule: %w", err)
	}
	if spec.R < 1 || spec.WindowNM <= 0 || spec.WindowNM%int64(spec.R) != 0 {
		return fmt.Errorf("region dissection window %d / r %d invalid", spec.WindowNM, spec.R)
	}
	if min(spec.TileOffI, spec.TileOffJ, spec.ColOff, spec.RowOff, spec.I0, spec.J0) < 0 {
		return errors.New("region offsets and owned rect must not be negative")
	}
	if spec.I1 <= spec.I0 || spec.J1 <= spec.J0 {
		return fmt.Errorf("region owned rect [%d,%d)x[%d,%d) is empty", spec.I0, spec.I1, spec.J0, spec.J1)
	}
	if want := (spec.I1 - spec.I0) * (spec.J1 - spec.J0); len(spec.Budget) != want {
		return fmt.Errorf("region budget has %d entries, owned rect has %d tiles", len(spec.Budget), want)
	}
	for k, n := range spec.Budget {
		if n < 0 {
			return fmt.Errorf("region budget entry %d is negative (%d)", k, n)
		}
	}
	return nil
}

// regionTask builds the queue task for a region job: it validates the
// request up front, parses the stripe DEF when the job runs, and hands the
// layout to SolveRegion with the job's progress hook and tracer. The budget
// comes from the coordinator (computed once for the whole chip), so the
// session layer's own density budgeting must not run.
func regionTask(req *SubmitRequest, queueWorkers int, progressTiles *obs.Counter) (jobqueue.Task, error) {
	m, ok := ParseMethod(req.Method)
	if !ok {
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
	if req.DEF == "" {
		return nil, errors.New("region jobs require an inline def")
	}
	spec := *req.Region
	if err := validateRegion(&spec); err != nil {
		return nil, err
	}
	opts, err := req.Options.SessionOptions()
	if err != nil {
		return nil, err
	}
	base := opts.EngineConfig()
	base.Workers = EffectiveWorkers(base.Workers, queueWorkers)
	o := req.Options
	defText := req.DEF

	return func(ctx context.Context, setPhase func(string)) (any, error) {
		tracker := newProgressTracker(func(v any) { jobqueue.PublishProgress(ctx, v) }, progressTiles)
		setPhase = tracker.wrapSetPhase(setPhase)
		setPhase("load")
		l, err := pilfill.LoadDEF(strings.NewReader(defText))
		if err != nil {
			return nil, fmt.Errorf("load region layout: %w", err)
		}
		cfg := base
		cfg.Trace = o.tracer()
		cfg.OnTile = tracker.onTile
		rep, err := SolveRegion(ctx, l, &spec, m, cfg, func(phase string, instances int) {
			// Instances() is the authoritative tile count: tiles with zero
			// budget or no slack columns never become instances.
			tracker.setTotal(instances)
			setPhase(phase)
		})
		if err != nil {
			return nil, err
		}
		setPhase("report")
		rep.Trace = cfg.Trace.Dump("pilfilld/" + spec.ID)
		return rep, nil
	}, nil
}

// SolveRegion solves one region job on its stripe layout l: it checks that
// the owned rectangle lies on the stripe's tile grid, builds the stripe
// engine (cfg with the spec's layer and tile offsets), expands the owned
// budget onto the stripe grid, and runs m on the owned tiles. phase is
// called with "prepare" before the engine is built and with "solve" and the
// instance count before the run. The report carries the region's merge
// inputs in Region. pilfilld's region jobs and the cluster's in-process
// run (cluster.RunChipLocal) both solve regions here.
func SolveRegion(ctx context.Context, l *layout.Layout, spec *RegionSpec, m core.Method, cfg core.Config, phase func(name string, instances int)) (*ReportPayload, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dis, err := layout.NewDissection(l.Die, spec.WindowNM, spec.R)
	if err != nil {
		return nil, fmt.Errorf("region dissection: %w", err)
	}
	// Owned rect in stripe-local indices; must land inside the stripe.
	li0, li1 := spec.I0-spec.TileOffI, spec.I1-spec.TileOffI
	lj0, lj1 := spec.J0-spec.TileOffJ, spec.J1-spec.TileOffJ
	if li0 < 0 || li1 > dis.NX || lj0 < 0 || lj1 > dis.NY {
		return nil, fmt.Errorf("owned rect [%d,%d)x[%d,%d) outside stripe grid %dx%d",
			li0, li1, lj0, lj1, dis.NX, dis.NY)
	}

	phase("prepare", 0)
	cfg.Layer = spec.Layer
	cfg.TileOffI, cfg.TileOffJ = spec.TileOffI, spec.TileOffJ
	rule := layout.FillRule{Feature: spec.RuleFeatureNM, Gap: spec.RuleGapNM, Buffer: spec.RuleBufferNM}
	eng, err := core.NewEngine(l, dis, rule, cfg)
	if err != nil {
		return nil, fmt.Errorf("region engine: %w", err)
	}
	budget := make(density.Budget, dis.NX)
	for i := range budget {
		budget[i] = make([]int, dis.NY)
	}
	w := spec.J1 - spec.J0
	for i := li0; i < li1; i++ {
		copy(budget[i][lj0:lj1], spec.Budget[(i-li0)*w:])
	}
	instances, err := eng.Instances(budget)
	if err != nil {
		return nil, fmt.Errorf("region instances: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	phase("solve", len(instances))
	res, err := eng.RunContext(ctx, m, instances)
	if err != nil {
		return nil, err
	}
	// The merge inputs: fills shifted into chip coordinates, per-net
	// subtotals keyed by the names of l's nets.
	rp := &RegionPayload{
		ID:         spec.ID,
		Tiles:      res.Tiles,
		Requested:  res.Requested,
		Placed:     res.Placed,
		ILPNodes:   res.ILPNodes,
		LPPivots:   res.LPPivots,
		Repaired:   res.IncumbentsRepaired,
		Dropped:    res.IncumbentsDropped,
		Unweighted: res.Unweighted,
		Weighted:   res.Weighted,
		Fills:      make([][2]int, 0, len(res.Fill.Fills)),
	}
	for _, t := range res.SlowestTiles {
		rp.SlowTiles = append(rp.SlowTiles, TileMS{I: t.I, J: t.J, MS: float64(t.Dur) / 1e6, Nodes: t.Nodes})
	}
	fh := NewFillHasher()
	for _, f := range res.Fill.Fills {
		col, row := f.Col+spec.ColOff, f.Row+spec.RowOff
		rp.Fills = append(rp.Fills, [2]int{col, row})
		fh.Add(col, row)
	}
	rp.FillHash = fh.Sum()
	for n, v := range res.PerNet {
		if v != 0 {
			if rp.PerNet == nil {
				rp.PerNet = make(map[string]float64)
			}
			rp.PerNet[l.Nets[n].Name] = v
		}
	}
	rep := resultReport(res, cfg.Workers)
	rep.Region = rp
	return rep, nil
}
