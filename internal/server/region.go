// region.go runs one sharded region job on a worker: the cluster coordinator
// (internal/cluster) posts a SubmitRequest carrying a RegionSpec — a stripe
// sub-layout DEF plus the owned tile rectangle, its fill budget, and the
// offsets mapping stripe coordinates back to the chip — and the worker solves
// exactly those tiles with a plain core.Engine. Everything the gather needs
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

// slowTilesOf converts a Result's top-K list to the wire form.
func slowTilesOf(res *core.Result) []TileMS {
	if len(res.SlowestTiles) == 0 {
		return nil
	}
	out := make([]TileMS, len(res.SlowestTiles))
	for i, t := range res.SlowestTiles {
		out[i] = TileMS{I: t.I, J: t.J, MS: float64(t.Dur) / 1e6, Nodes: t.Nodes}
	}
	return out
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
// scatter requests fail with 400 instead of a Failed job.
func validateRegion(spec *RegionSpec) (layout.FillRule, error) {
	rule := layout.FillRule{Feature: spec.RuleFeatureNM, Gap: spec.RuleGapNM, Buffer: spec.RuleBufferNM}
	if err := rule.Validate(); err != nil {
		return rule, fmt.Errorf("region rule: %w", err)
	}
	if spec.R < 1 || spec.WindowNM <= 0 || spec.WindowNM%int64(spec.R) != 0 {
		return rule, fmt.Errorf("region dissection window %d / r %d invalid", spec.WindowNM, spec.R)
	}
	if spec.I1 <= spec.I0 || spec.J1 <= spec.J0 {
		return rule, fmt.Errorf("region owned rect [%d,%d)x[%d,%d) is empty", spec.I0, spec.I1, spec.J0, spec.J1)
	}
	if want := (spec.I1 - spec.I0) * (spec.J1 - spec.J0); len(spec.Budget) != want {
		return rule, fmt.Errorf("region budget has %d entries, owned rect has %d tiles", len(spec.Budget), want)
	}
	return rule, nil
}

// regionTask builds the queue task for a region job. It mirrors defaultTask's
// validate-up-front shape but drives core.Engine directly: the budget comes
// from the coordinator (computed once for the whole chip), so the session
// layer's own density budgeting must not run.
func regionTask(req *SubmitRequest, queueWorkers int, progressTiles *obs.Counter) (jobqueue.Task, error) {
	m, ok := ParseMethod(req.Method)
	if !ok {
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
	if req.DEF == "" {
		return nil, errors.New("region jobs require an inline def")
	}
	spec := *req.Region
	rule, err := validateRegion(&spec)
	if err != nil {
		return nil, err
	}
	opts, err := req.Options.SessionOptions()
	if err != nil {
		return nil, err
	}
	base := opts.EngineConfig()
	base.Layer = spec.Layer
	base.TileOffI, base.TileOffJ = spec.TileOffI, spec.TileOffJ
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
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		setPhase("prepare")
		cfg := base
		cfg.Trace = o.tracer()
		cfg.OnTile = tracker.onTile
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
			for j := lj0; j < lj1; j++ {
				budget[i][j] = spec.Budget[(i-li0)*w+(j-lj0)]
			}
		}
		instances, err := eng.Instances(budget)
		if err != nil {
			return nil, fmt.Errorf("region instances: %w", err)
		}
		// Instances() is the authoritative tile count: tiles with zero budget
		// or no slack columns never become instances.
		tracker.setTotal(len(instances))
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		setPhase("solve")
		res, err := eng.RunContext(ctx, m, instances)
		if err != nil {
			return nil, err
		}
		setPhase("report")
		rep := buildRegionReport(&spec, l, res, cfg.Workers)
		rep.Trace = cfg.Trace.Dump("pilfilld/" + spec.ID)
		return rep, nil
	}, nil
}

// buildRegionReport folds a region run into the wire payload: the standard
// top-level figures (so worker metrics and job views read normally) plus the
// RegionPayload merge inputs in chip coordinates.
func buildRegionReport(spec *RegionSpec, l *layout.Layout, res *core.Result, workers int) *ReportPayload {
	p := resultReport(res, workers)
	p.Region = NewRegionPayload(spec.ID, l, res, spec.ColOff, spec.RowOff)
	return p
}

// NewRegionPayload converts a region run's result to the merge inputs, with
// fill sites shifted by (colOff, rowOff) into chip coordinates and per-net
// subtotals keyed by the names of l's nets. Workers and the cluster's local
// reference run both build their payloads here, so the two merge identical
// data.
func NewRegionPayload(id string, l *layout.Layout, res *core.Result, colOff, rowOff int) *RegionPayload {
	rp := &RegionPayload{
		ID:         id,
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
		SlowTiles:  slowTilesOf(res),
	}
	fh := NewFillHasher()
	for _, f := range res.Fill.Fills {
		col, row := f.Col+colOff, f.Row+rowOff
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
	return rp
}
