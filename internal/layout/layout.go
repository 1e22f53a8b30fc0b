// Package layout defines the routed-layout data model consumed by the fill
// pipeline: dies, layers, nets with rectilinear wire segments, the fixed
// r-dissection of the die into tiles and windows (Fig 1 of the paper), the
// fill-site grid induced by a fill design rule, and occupancy/feature-area
// queries over both.
//
// All coordinates are integer nanometers. Wire segments are axis-aligned
// centerline spans with a width; their drawn geometry is the centerline
// expanded by width/2 in the perpendicular direction.
package layout

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pilfill/internal/geom"
)

// Direction is the preferred routing direction of a layer.
type Direction int

// Routing directions.
const (
	Horizontal Direction = iota
	Vertical
)

// String names the direction.
func (d Direction) String() string {
	if d == Horizontal {
		return "horizontal"
	}
	return "vertical"
}

// Layer describes one routing layer.
type Layer struct {
	Name  string
	Dir   Direction
	Width int64 // default wire width in nm
}

// Pin is a net terminal.
type Pin struct {
	Name  string
	P     geom.Point
	Layer int
}

// Segment is one axis-aligned wire piece of a net's route. A and B are
// centerline endpoints; either A.X == B.X (vertical) or A.Y == B.Y
// (horizontal). Zero-length segments (vias/stubs) are permitted.
type Segment struct {
	Layer int
	A, B  geom.Point
	Width int64
}

// Horizontal reports whether the segment runs along X.
func (s Segment) Horizontal() bool { return s.A.Y == s.B.Y }

// Length returns the centerline length in nm.
func (s Segment) Length() int64 {
	dx := s.B.X - s.A.X
	if dx < 0 {
		dx = -dx
	}
	dy := s.B.Y - s.A.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Rect returns the drawn geometry of the segment: the centerline expanded by
// Width/2 on each side (and capped square at the endpoints).
func (s Segment) Rect() geom.Rect {
	h := s.Width / 2
	x1, x2 := s.A.X, s.B.X
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	y1, y2 := s.A.Y, s.B.Y
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return geom.Rect{X1: x1 - h, Y1: y1 - h, X2: x2 + h, Y2: y2 + h}
}

// Net is a routed signal net with one driver and one or more sinks.
type Net struct {
	Name     string
	Source   Pin
	Sinks    []Pin
	Segments []Segment
}

// Layout is a routed design.
type Layout struct {
	Name   string
	Die    geom.Rect
	Layers []Layer
	Nets   []*Net
}

// Validate checks structural invariants: non-empty die, axis-aligned
// segments with positive widths on known layers, pins inside the die.
func (l *Layout) Validate() error {
	if l.Die.Empty() {
		return fmt.Errorf("layout %q: empty die", l.Name)
	}
	if len(l.Layers) == 0 {
		return fmt.Errorf("layout %q: no layers", l.Name)
	}
	for _, n := range l.Nets {
		if len(n.Sinks) == 0 {
			return fmt.Errorf("net %q: no sinks", n.Name)
		}
		for i, s := range n.Segments {
			if s.A.X != s.B.X && s.A.Y != s.B.Y {
				return fmt.Errorf("net %q segment %d: not axis-aligned", n.Name, i)
			}
			if s.Width <= 0 {
				return fmt.Errorf("net %q segment %d: width %d", n.Name, i, s.Width)
			}
			if s.Layer < 0 || s.Layer >= len(l.Layers) {
				return fmt.Errorf("net %q segment %d: layer %d out of range", n.Name, i, s.Layer)
			}
			if !l.Die.ContainsRect(s.Rect()) {
				return fmt.Errorf("net %q segment %d: %v outside die %v", n.Name, i, s.Rect(), l.Die)
			}
		}
	}
	return nil
}

// SegmentsOnLayer returns every (net, segment index) pair on the layer,
// in deterministic net order.
func (l *Layout) SegmentsOnLayer(layer int) []SegRef {
	var out []SegRef
	for ni, n := range l.Nets {
		for si, s := range n.Segments {
			if s.Layer == layer {
				out = append(out, SegRef{Net: ni, Seg: si})
			}
		}
	}
	return out
}

// SegRef identifies a segment within a layout by net and segment index.
type SegRef struct {
	Net, Seg int
}

// Dissection is the fixed r-dissection of Fig 1: the die is cut into square
// tiles of side Tile = Window/R; density windows are all R x R tile blocks
// fully inside the die, one starting at every tile — the union over the R^2
// phase-shifted w x w dissections.
type Dissection struct {
	Die    geom.Rect
	Window int64 // window side in nm
	R      int
	Tile   int64 // window/R
	NX, NY int   // tile counts
}

// NewDissection builds the dissection. The window must divide evenly by r
// and the die should be a multiple of the tile size (trailing partial tiles
// are covered by a final short row/column).
func NewDissection(die geom.Rect, window int64, r int) (*Dissection, error) {
	if die.Empty() {
		return nil, fmt.Errorf("layout: dissection of empty die")
	}
	if r <= 0 {
		return nil, fmt.Errorf("layout: dissection r = %d", r)
	}
	if window <= 0 || window%int64(r) != 0 {
		return nil, fmt.Errorf("layout: window %d not divisible by r = %d", window, r)
	}
	tile := window / int64(r)
	nx := int((die.Width() + tile - 1) / tile)
	ny := int((die.Height() + tile - 1) / tile)
	if nx < r || ny < r {
		return nil, fmt.Errorf("layout: die %v too small for window %d (tile %d, r %d)", die, window, tile, r)
	}
	return &Dissection{Die: die, Window: window, R: r, Tile: tile, NX: nx, NY: ny}, nil
}

// TileRect returns tile (i, j) — i indexes X, j indexes Y — clipped to the
// die (edge tiles may be short).
func (d *Dissection) TileRect(i, j int) geom.Rect {
	r := geom.Rect{
		X1: d.Die.X1 + int64(i)*d.Tile,
		Y1: d.Die.Y1 + int64(j)*d.Tile,
		X2: d.Die.X1 + int64(i+1)*d.Tile,
		Y2: d.Die.Y1 + int64(j+1)*d.Tile,
	}
	return r.Intersect(d.Die)
}

// NumWindows returns the window grid dimensions (windows fully inside the
// die, one per tile origin).
func (d *Dissection) NumWindows() (wx, wy int) {
	return d.NX - d.R + 1, d.NY - d.R + 1
}

// WindowRect returns the window whose lower-left tile is (i, j).
func (d *Dissection) WindowRect(i, j int) geom.Rect {
	r := geom.Rect{
		X1: d.Die.X1 + int64(i)*d.Tile,
		Y1: d.Die.Y1 + int64(j)*d.Tile,
		X2: d.Die.X1 + int64(i)*d.Tile + d.Window,
		Y2: d.Die.Y1 + int64(j)*d.Tile + d.Window,
	}
	return r.Intersect(d.Die)
}

// TileIndex returns the tile containing point (x, y); callers must pass
// points inside the die.
func (d *Dissection) TileIndex(x, y int64) (i, j int) {
	i = int((x - d.Die.X1) / d.Tile)
	j = int((y - d.Die.Y1) / d.Tile)
	if i >= d.NX {
		i = d.NX - 1
	}
	if j >= d.NY {
		j = d.NY - 1
	}
	return i, j
}

// FillRule is the floating-fill design rule: square features of side
// Feature, separated by Gap, kept at least Buffer away from active geometry.
type FillRule struct {
	Feature int64 // fill square side (the paper's w)
	Gap     int64 // spacing between adjacent fill features (the paper's s)
	Buffer  int64 // keep-out distance from interconnect (the paper's buf)
}

// Pitch returns the site grid pitch.
func (fr FillRule) Pitch() int64 { return fr.Feature + fr.Gap }

// Validate checks the rule is usable.
func (fr FillRule) Validate() error {
	if fr.Feature <= 0 {
		return fmt.Errorf("layout: fill feature size %d", fr.Feature)
	}
	if fr.Gap < 0 || fr.Buffer < 0 {
		return fmt.Errorf("layout: negative fill gap/buffer")
	}
	return nil
}

// SiteGrid places candidate fill sites on a uniform grid over the die.
// Site (c, r) has its feature square at SiteRect(c, r).
type SiteGrid struct {
	Die  geom.Rect
	Rule FillRule
	Cols int
	Rows int
}

// NewSiteGrid builds the grid; sites whose feature square would leave the
// die are excluded by construction. A grid with more than math.MaxInt32
// columns or rows is an error: slack columns store site indices as int32.
func NewSiteGrid(die geom.Rect, rule FillRule) (*SiteGrid, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	if die.Empty() {
		return nil, fmt.Errorf("layout: site grid on empty die")
	}
	p := rule.Pitch()
	cols := siteCount(die.Width(), rule.Feature, p)
	rows := siteCount(die.Height(), rule.Feature, p)
	if cols > math.MaxInt32 || rows > math.MaxInt32 {
		return nil, fmt.Errorf("layout: site grid of %d x %d sites exceeds %d per axis", cols, rows, math.MaxInt32)
	}
	return &SiteGrid{Die: die, Rule: rule, Cols: int(cols), Rows: int(rows)}, nil
}

// siteCount returns the number of sites of the given feature and pitch
// along a span of the given length: 0 when the span is shorter than one
// feature.
func siteCount(span, feature, pitch int64) int64 {
	if span < feature {
		return 0
	}
	return (span-feature)/pitch + 1
}

// SiteRect returns the feature square of site (c, r).
func (g *SiteGrid) SiteRect(c, r int) geom.Rect {
	p := g.Rule.Pitch()
	x := g.Die.X1 + int64(c)*p
	y := g.Die.Y1 + int64(r)*p
	return geom.Rect{X1: x, Y1: y, X2: x + g.Rule.Feature, Y2: y + g.Rule.Feature}
}

// SiteX returns the left edge X of column c.
func (g *SiteGrid) SiteX(c int) int64 { return g.Die.X1 + int64(c)*g.Rule.Pitch() }

// SiteCenterX returns the center X of column c.
func (g *SiteGrid) SiteCenterX(c int) int64 { return g.SiteX(c) + g.Rule.Feature/2 }

// gridRange returns the half-open index range [lo, hi) of grid cells whose
// feature span [origin + i*pitch, origin + i*pitch + feature) intersects
// [a, b), clamped to [0, count). An empty span (a >= b) intersects nothing.
func gridRange(origin, pitch, feature, a, b int64, count int) (lo, hi int) {
	// Cell i intersects iff i*pitch > a - origin - feature  AND
	//                       i*pitch < b - origin.
	lo64 := floorDiv(a-origin-feature, pitch) + 1
	hi64 := floorDiv(b-origin-1, pitch) + 1 // smallest i with i*pitch >= b-origin
	lo = clampIdx(lo64, count)
	hi = clampIdx(hi64, count)
	if lo > hi || a >= b {
		lo = hi
	}
	return lo, hi
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func clampIdx(v int64, count int) int {
	if v < 0 {
		return 0
	}
	if v > int64(count) {
		return count
	}
	return int(v)
}

// ColRange returns the half-open range [lo, hi) of site columns whose
// feature squares intersect the X span [x1, x2).
func (g *SiteGrid) ColRange(x1, x2 int64) (lo, hi int) {
	return gridRange(g.Die.X1, g.Rule.Pitch(), g.Rule.Feature, x1, x2, g.Cols)
}

// RowRange is ColRange for the Y axis.
func (g *SiteGrid) RowRange(y1, y2 int64) (lo, hi int) {
	return gridRange(g.Die.Y1, g.Rule.Pitch(), g.Rule.Feature, y1, y2, g.Rows)
}

func (g *SiteGrid) siteY(r int) int64 { return g.Die.Y1 + int64(r)*g.Rule.Pitch() }

// SiteY returns the bottom edge Y of row r.
func (g *SiteGrid) SiteY(r int) int64 { return g.siteY(r) }

// Occupancy records which sites are blocked by active geometry (expanded by
// the buffer distance) on one layer.
type Occupancy struct {
	Grid    *SiteGrid
	blocked []bool
}

// NewOccupancy computes site occupancy for the given layer of the layout:
// a site is blocked when its feature square, expanded by the rule's buffer,
// intersects any drawn segment geometry on that layer.
func NewOccupancy(l *Layout, grid *SiteGrid, layer int) *Occupancy {
	occ := &Occupancy{Grid: grid, blocked: make([]bool, grid.Cols*grid.Rows)}
	for _, n := range l.Nets {
		for _, s := range n.Segments {
			if s.Layer != layer {
				continue
			}
			r := s.Rect().Expand(grid.Rule.Buffer)
			c1, c2 := grid.ColRange(r.X1, r.X2)
			r1, r2 := grid.RowRange(r.Y1, r.Y2)
			for c := c1; c < c2; c++ {
				base := c * grid.Rows
				for row := r1; row < r2; row++ {
					occ.blocked[base+row] = true
				}
			}
		}
	}
	return occ
}

// Blocked reports whether site (c, r) is unavailable for fill.
func (o *Occupancy) Blocked(c, r int) bool {
	return o.blocked[c*o.Grid.Rows+r]
}

// FreeInColumn counts free sites in column c with row in [rLo, rHi).
func (o *Occupancy) FreeInColumn(c, rLo, rHi int) int {
	n := 0
	base := c * o.Grid.Rows
	for r := rLo; r < rHi; r++ {
		if !o.blocked[base+r] {
			n++
		}
	}
	return n
}

// Fill is one placed fill feature, identified by its site.
type Fill struct {
	Col, Row int
}

// FillSet is a collection of placed fill features on one layer.
type FillSet struct {
	Grid  *SiteGrid
	Layer int
	Fills []Fill
}

// FeatureAreaInRect returns the drawn wire area of the layer inside r,
// counting overlaps between distinct segments once per segment (consistent
// with how density tools sum per-shape areas; synthetic routes here do not
// self-overlap).
func (l *Layout) FeatureAreaInRect(layer int, r geom.Rect) int64 {
	var area int64
	for _, n := range l.Nets {
		for _, s := range n.Segments {
			if s.Layer != layer {
				continue
			}
			area += s.Rect().Intersect(r).Area()
		}
	}
	return area
}

// TileFeatureAreas returns the drawn wire area of the layer in every tile of
// the dissection, indexed [i][j]. It distributes each segment rectangle over
// the tiles it crosses, so the total equals the sum of segment areas.
func (l *Layout) TileFeatureAreas(layer int, d *Dissection) [][]int64 {
	areas := make([][]int64, d.NX)
	for i := range areas {
		areas[i] = make([]int64, d.NY)
	}
	for _, n := range l.Nets {
		for _, s := range n.Segments {
			if s.Layer != layer {
				continue
			}
			r := s.Rect().Intersect(d.Die)
			if r.Empty() {
				continue
			}
			i1, j1 := d.TileIndex(r.X1, r.Y1)
			i2, j2 := d.TileIndex(r.X2-1, r.Y2-1)
			for i := i1; i <= i2; i++ {
				for j := j1; j <= j2; j++ {
					areas[i][j] += r.Intersect(d.TileRect(i, j)).Area()
				}
			}
		}
	}
	return areas
}

// TileFillAreas returns the fill area per tile for a fill set, indexed
// [i][j]. Fill features are grid-aligned squares, typically within one tile,
// but edge features crossing tile boundaries are split correctly.
func (fs *FillSet) TileFillAreas(d *Dissection) [][]int64 {
	areas := make([][]int64, d.NX)
	for i := range areas {
		areas[i] = make([]int64, d.NY)
	}
	for _, f := range fs.Fills {
		r := fs.Grid.SiteRect(f.Col, f.Row).Intersect(d.Die)
		if r.Empty() {
			continue
		}
		i1, j1 := d.TileIndex(r.X1, r.Y1)
		i2, j2 := d.TileIndex(r.X2-1, r.Y2-1)
		for i := i1; i <= i2; i++ {
			for j := j1; j <= j2; j++ {
				areas[i][j] += r.Intersect(d.TileRect(i, j)).Area()
			}
		}
	}
	return areas
}

// HLine is a horizontal active line on the fill layer, the unit the
// scan-line algorithm sweeps over: net/segment identity plus drawn extent.
type HLine struct {
	Ref    SegRef
	X1, X2 int64 // drawn span (centerline extent widened by width/2)
	YBot   int64 // bottom drawn edge
	YTop   int64 // top drawn edge
}

// HLines collects the horizontal segments of a layer as HLine records,
// sorted by YBot then X1 (the scan order of Fig 7). It counts them first,
// so the result is one exact-size allocation. slices.SortFunc is the same
// pattern-defeating quicksort as sort.Slice (both are generated from one
// template), so lines that tie on (YBot, X1) keep the order sort.Slice gave.
func (l *Layout) HLines(layer int) []HLine {
	n := 0
	for _, net := range l.Nets {
		for _, s := range net.Segments {
			if isHLine(s, layer) {
				n++
			}
		}
	}
	out := make([]HLine, 0, n)
	for ni, net := range l.Nets {
		for si, s := range net.Segments {
			if !isHLine(s, layer) {
				continue
			}
			r := s.Rect()
			out = append(out, HLine{
				Ref: SegRef{Net: ni, Seg: si},
				X1:  r.X1, X2: r.X2,
				YBot: r.Y1, YTop: r.Y2,
			})
		}
	}
	slices.SortFunc(out, func(a, b HLine) int {
		if c := cmp.Compare(a.YBot, b.YBot); c != 0 {
			return c
		}
		return cmp.Compare(a.X1, b.X1)
	})
	return out
}

// isHLine reports whether s is a horizontal line of the given layer.
func isHLine(s Segment, layer int) bool {
	return s.Layer == layer && s.Horizontal() && s.Length() != 0
}
