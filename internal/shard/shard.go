// Package shard partitions a chip's tile grid into rectangular regions on a
// coarse 2-D grid so that one fill-synthesis job per region can run on a
// separate worker and the gathered results reassemble bit-identically to a
// single-process run.
//
// Two locality radii drive the decomposition:
//
//   - Density windows are R×R tile blocks, so every window overlapping an
//     owned tile lies inside the owned rectangle plus a halo of R-1 tiles.
//     The fill budget itself is not sharded: the coordinator budgets the
//     whole chip once and each Job carries its owned slice. The halo sizes
//     the stripe geometry below and keeps every stripe at least R tiles
//     wide, so a dissection over it is valid.
//   - Slack-column extraction (scanline.DefIII) bounds a column's vertical gap
//     by lines anywhere in the die's Y range, so region geometry is cut as a
//     full-height vertical stripe: the stripe spans the whole die in Y and the
//     region's halo rectangle in X, then widens to the bounding box of every
//     net it overlaps (nets are included whole — RC analysis needs the full
//     route) and snaps outward to tile boundaries. Regions in the same stripe
//     column share one stripe layout; a 2-D region grid splits the stripe's
//     budget in Y without re-cutting geometry.
//
// The stripe die is tile-aligned and the tile size is required to be a
// multiple of the fill-site pitch, so the stripe's site grid is a translate
// of the chip's: local column c maps to global column c + ColOff and rows map
// one to one. Each Job carries those offsets, the owned-rectangle fill
// budget, and a canonical SHA-256 content hash — the idempotency key the
// cluster coordinator dedupes retries on.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"pilfill/internal/def"
	"pilfill/internal/density"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// TileRect is a half-open rectangle of tile indices: i in [I0, I1), j in
// [J0, J1).
type TileRect struct {
	I0, J0, I1, J1 int
}

// Contains reports whether tile (i, j) lies in the rectangle.
func (r TileRect) Contains(i, j int) bool {
	return i >= r.I0 && i < r.I1 && j >= r.J0 && j < r.J1
}

// Tiles returns the rectangle's tile count.
func (r TileRect) Tiles() int { return (r.I1 - r.I0) * (r.J1 - r.J0) }

// String renders the rectangle for logs and errors.
func (r TileRect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.I0, r.I1, r.J0, r.J1)
}

// Region is one cell of the coarse region grid: the tiles it owns (every
// tile is owned by exactly one region) and its halo-extended rectangle (the
// support of every density window touching an owned tile, which sizes the
// region's stripe).
type Region struct {
	// Index is the region's position in the canonical scatter/gather order:
	// stripe columns left to right, regions bottom to top within a column
	// (Index = IX*GY + IY). The gather merges region results in this order.
	Index int
	// IX, IY locate the region on the coarse grid.
	IX, IY int
	// Owned is the region's tile rectangle.
	Owned TileRect
	// Halo is Owned expanded by R-1 tiles on every side, clamped to the tile
	// grid: the exact support of every density window overlapping Owned.
	Halo TileRect
}

// ID returns the deterministic region identifier used in logs, metrics and
// WAL records: grid shape plus position, stable across runs and processes.
func (r Region) ID(gx, gy int) string {
	return fmt.Sprintf("r%dx%d-%d-%d", gx, gy, r.IX, r.IY)
}

// chunk splits n into parts contiguous chunks: the first n%parts chunks get
// one extra element, so widths differ by at most one.
func chunk(n, parts, idx int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = idx*base + min(idx, rem)
	hi = lo + base
	if idx < rem {
		hi++
	}
	return lo, hi
}

// Partition cuts an nx x ny tile grid with dissection factor r into a gx x gy
// grid of regions with R-1 halos. Every tile is owned by exactly one region
// (the property tests verify exact cover), and every region's halo rectangle
// is at least r tiles on a side, so a dissection over the halo is valid.
func Partition(nx, ny, r, gx, gy int) ([]Region, error) {
	if r < 1 {
		return nil, fmt.Errorf("shard: dissection r = %d", r)
	}
	if gx < 1 || gx > nx || gy < 1 || gy > ny {
		return nil, fmt.Errorf("shard: region grid %dx%d does not fit %dx%d tiles", gx, gy, nx, ny)
	}
	h := r - 1
	out := make([]Region, 0, gx*gy)
	for ix := 0; ix < gx; ix++ {
		i0, i1 := chunk(nx, gx, ix)
		for iy := 0; iy < gy; iy++ {
			j0, j1 := chunk(ny, gy, iy)
			out = append(out, Region{
				Index: ix*gy + iy,
				IX:    ix, IY: iy,
				Owned: TileRect{I0: i0, J0: j0, I1: i1, J1: j1},
				Halo: TileRect{
					I0: max(0, i0-h), J0: max(0, j0-h),
					I1: min(nx, i1+h), J1: min(ny, j1+h),
				},
			})
		}
	}
	return out, nil
}

// Plan is a sharding of one chip: the layout, its dissection and fill rule,
// and the region grid. Build with NewPlan, then Jobs to materialize
// self-contained region jobs for a computed budget.
type Plan struct {
	L       *layout.Layout
	Dis     *layout.Dissection
	Rule    layout.FillRule
	Layer   int
	GX, GY  int
	Regions []Region
}

// NewPlan validates the decomposition preconditions and partitions the tile
// grid. The tile size must be a multiple of the fill-site pitch so stripe
// site grids are translates of the chip's (fill coordinates then map between
// the two by a constant column offset).
func NewPlan(l *layout.Layout, dis *layout.Dissection, rule layout.FillRule, layer, gx, gy int) (*Plan, error) {
	if err := rule.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if layer < 0 || layer >= len(l.Layers) {
		return nil, fmt.Errorf("shard: layer %d out of range", layer)
	}
	if pitch := rule.Pitch(); dis.Tile%pitch != 0 {
		return nil, fmt.Errorf("shard: tile %d nm is not a multiple of the site pitch %d nm; stripe site grids would not align with the chip's", dis.Tile, pitch)
	}
	regions, err := Partition(dis.NX, dis.NY, dis.R, gx, gy)
	if err != nil {
		return nil, err
	}
	return &Plan{L: l, Dis: dis, Rule: rule, Layer: layer, GX: gx, GY: gy, Regions: regions}, nil
}

// Job is one self-contained region job: a stripe sub-layout (inline DEF),
// the dissection parameters, the coordinate offsets mapping stripe-local
// tiles and fill sites back to chip coordinates, the owned-rectangle fill
// budget, and the canonical content hash.
type Job struct {
	Region Region
	// Layout is the stripe sub-layout and DEF its text in the DEF-subset
	// dialect: in-process runs solve on Layout, remote workers parse DEF.
	// Regions in one stripe column share both.
	Layout *layout.Layout
	DEF    string
	// WindowNM and R reproduce the chip dissection on the stripe.
	WindowNM int64
	R        int
	// TileOffI/TileOffJ translate stripe-local tile indices to chip tile
	// indices (chip i = local i + TileOffI); ColOff/RowOff do the same for
	// fill-site coordinates. Stripes span the die's full height, so the J and
	// row offsets are zero today; they are carried for symmetry.
	TileOffI, TileOffJ int
	ColOff, RowOff     int
	// Budget is the owned rectangle's fill budget, row-major in chip tile
	// order: Budget[(i-Owned.I0)*(Owned.J1-Owned.J0) + (j-Owned.J0)].
	Budget []int
	// Hash is the canonical SHA-256 content hash over everything above
	// (DEF standing for Layout) — two jobs with equal hashes are the same
	// work, which is what makes retried submissions safe to dedupe.
	Hash string
}

// BudgetAt returns the budget for chip tile (i, j), which must lie in the
// owned rectangle.
func (jb *Job) BudgetAt(i, j int) int {
	o := jb.Region.Owned
	return jb.Budget[(i-o.I0)*(o.J1-o.J0)+(j-o.J0)]
}

// stripeLayout cuts the full-height stripe sub-layout for region grid column
// ix: the X range of that column's halo, widened to the drawn bounding box
// of every net overlapping it and snapped outward to tile boundaries. The
// returned layout shares net structures with the chip layout (neither side
// mutates them).
func (p *Plan) stripeLayout(ix int) (*layout.Layout, error) {
	d := p.Dis
	hi0, hi1 := 0, 0
	for _, r := range p.Regions {
		if r.IX == ix {
			hi0, hi1 = r.Halo.I0, r.Halo.I1
			break
		}
	}
	stripe := geom.Rect{
		X1: d.Die.X1 + int64(hi0)*d.Tile,
		Y1: d.Die.Y1,
		X2: min64(d.Die.X2, d.Die.X1+int64(hi1)*d.Tile),
		Y2: d.Die.Y2,
	}
	x1, x2 := stripe.X1, stripe.X2
	var nets []*layout.Net
	for _, n := range p.L.Nets {
		overlaps := false
		for _, s := range n.Segments {
			if s.Rect().Overlaps(stripe) {
				overlaps = true
				break
			}
		}
		if !overlaps {
			continue
		}
		nets = append(nets, n)
		for _, s := range n.Segments {
			r := s.Rect()
			x1, x2 = min64(x1, r.X1), max64(x2, r.X2)
		}
	}
	// Snap the widened range outward to tile boundaries (keeping the site
	// grids aligned) and clamp to the die.
	x1 = d.Die.X1 + floorDiv(x1-d.Die.X1, d.Tile)*d.Tile
	x2 = d.Die.X1 + ceilDiv(x2-d.Die.X1, d.Tile)*d.Tile
	x1, x2 = max64(x1, d.Die.X1), min64(x2, d.Die.X2)
	sub := &layout.Layout{
		Name:   fmt.Sprintf("%s_stripe%d", p.L.Name, ix),
		Die:    geom.Rect{X1: x1, Y1: d.Die.Y1, X2: x2, Y2: d.Die.Y2},
		Layers: p.L.Layers,
		Nets:   nets,
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("shard: stripe %d: %w", ix, err)
	}
	return sub, nil
}

// Jobs materializes one Job per region for a chip-wide fill budget (indexed
// [i][j] over the chip's tile grid, as density.FFTBudget returns it).
func (p *Plan) Jobs(budget density.Budget) ([]*Job, error) {
	d := p.Dis
	if len(budget) != d.NX {
		return nil, fmt.Errorf("shard: budget is %d tile columns, dissection has %d", len(budget), d.NX)
	}
	// stripes holds each stripe column's shared fields, cut once.
	stripes := make(map[int]Job)
	pitch := p.Rule.Pitch()
	out := make([]*Job, 0, len(p.Regions))
	for _, r := range p.Regions {
		jb, ok := stripes[r.IX]
		if !ok {
			sub, err := p.stripeLayout(r.IX)
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			if err := def.Write(&b, sub); err != nil {
				return nil, fmt.Errorf("shard: stripe %d: %w", r.IX, err)
			}
			jb = Job{
				Layout:   sub,
				DEF:      b.String(),
				WindowNM: d.Window,
				R:        d.R,
				TileOffI: int((sub.Die.X1 - d.Die.X1) / d.Tile),
				ColOff:   int((sub.Die.X1 - d.Die.X1) / pitch),
			}
			stripes[r.IX] = jb
		}
		o := r.Owned
		jb.Region = r
		jb.Budget = make([]int, 0, o.Tiles())
		for i := o.I0; i < o.I1; i++ {
			jb.Budget = append(jb.Budget, budget[i][o.J0:o.J1]...)
		}
		jb.Hash = jb.contentHash(p.Rule)
		out = append(out, &jb)
	}
	return out, nil
}

// contentHash computes the canonical SHA-256 fingerprint of the job: every
// field that changes what the worker computes, in a fixed order. The fill
// rule is included because the worker reconstructs the site grid from it.
func (jb *Job) contentHash(rule layout.FillRule) string {
	h := sha256.New()
	o := jb.Region.Owned
	fmt.Fprintf(h, "pilfill-region-v1|w=%d|r=%d|toff=%d,%d|soff=%d,%d|owned=%d,%d,%d,%d|rule=%d,%d,%d|def=%d|",
		jb.WindowNM, jb.R, jb.TileOffI, jb.TileOffJ, jb.ColOff, jb.RowOff,
		o.I0, o.J0, o.I1, o.J1, rule.Feature, rule.Gap, rule.Buffer, len(jb.DEF))
	h.Write([]byte(jb.DEF))
	for _, n := range jb.Budget {
		fmt.Fprintf(h, "%d,", n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MaskedBudget returns a copy of the chip-wide budget zeroed outside the
// rectangle. It is kept only for cmd/bench's traced chip mirror, which
// still solves each region this way on one whole-chip engine; the library's
// in-process run (cluster.RunChipLocal) solves each region on its Job's
// stripe layout instead.
func MaskedBudget(b density.Budget, rect TileRect) density.Budget {
	out := make(density.Budget, len(b))
	for i := range b {
		out[i] = make([]int, len(b[i]))
		if i >= rect.I0 && i < rect.I1 {
			copy(out[i][rect.J0:rect.J1], b[i][rect.J0:rect.J1])
		}
	}
	return out
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 { return -floorDiv(-a, b) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
