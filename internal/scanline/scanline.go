// Package scanline extracts slack site columns — the decision variables of
// the MDFC PIL-Fill problem — from a routed layout, implementing the
// scan-line algorithm of Fig 7 of the paper and its three slack-column
// definitions (Figs 4–6):
//
//   - DefI captures only columns between pairs of active lines inside the
//     tile; slack adjacent to tile boundaries is unusable.
//   - DefII adds columns bounded by tile boundaries, but attributes no
//     active line (and hence no delay cost) to the boundary side — the
//     inaccuracy the paper points out for blocks like its Fig 5 "B".
//   - DefIII sweeps the whole layout, so a column is always bounded by the
//     nearest active lines even when they live in adjacent tiles, or by the
//     layout boundary; this is the most accurate definition.
//
// The routing direction is assumed horizontal (the paper's WLOG choice);
// columns are vertical runs of free fill sites between two horizontal
// bounds.
package scanline

import (
	"fmt"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// Def selects a slack-column definition.
type Def int

// Slack-column definitions, in increasing order of modeling accuracy.
const (
	DefI Def = iota + 1
	DefII
	DefIII
)

// String names the definition.
func (d Def) String() string {
	switch d {
	case DefI:
		return "SlackColumn-I"
	case DefII:
		return "SlackColumn-II"
	case DefIII:
		return "SlackColumn-III"
	}
	return fmt.Sprintf("Def(%d)", int(d))
}

// Column is one slack site column within a tile: a vertical run of fill
// sites at site-column index Col, bounded below and above by active lines or
// by a boundary. Engine.Tiles holds every column for a whole run, so a
// Column is kept to 64 bytes: site indices and capacity are int32 (a
// layout.SiteGrid never has more than math.MaxInt32 columns or rows), the
// center X is derived as grid.SiteCenterX(int(Col)), and a boundary side is
// a negative Net in Low or High rather than a flag.
type Column struct {
	Col          int32 // site column index in the global grid
	Capacity     int32 // free sites available within this tile's part of the gap
	RowLo, RowHi int32 // candidate site rows [RowLo, RowHi) within the tile
	YLo, YHi     int64 // the gap's vertical extent (drawn edges of the bounds)

	// Low/High are the active lines bounding the gap below and above. Net < 0
	// marks a side bounded by the tile or layout boundary instead, depending
	// on the definition (see HasLow/HasHigh).
	Low, High layout.SegRef
}

// boundary is the Low/High of a side no active line bounds.
var boundary = layout.SegRef{Net: -1, Seg: -1}

// HasLow reports whether an active line bounds the gap below.
func (c *Column) HasLow() bool { return c.Low.Net >= 0 }

// HasHigh reports whether an active line bounds the gap above.
func (c *Column) HasHigh() bool { return c.High.Net >= 0 }

// Spacing returns the line-pair distance d used by the capacitance model.
func (c *Column) Spacing() int64 { return c.YHi - c.YLo }

// TileColumns is the per-tile result: the columns overlapping tile (I, J).
type TileColumns struct {
	I, J int
	Rect geom.Rect
	Cols []Column
}

// TotalCapacity sums the capacities of the tile's columns.
func (tc *TileColumns) TotalCapacity() int {
	n := 0
	for i := range tc.Cols {
		n += int(tc.Cols[i].Capacity)
	}
	return n
}

// gap is one open vertical interval at one site column, as the sweep emits
// it.
type gap struct {
	col      int
	yLo, yHi int64
	lowIdx   int // index into the sweep's line list, -1 = boundary
	highIdx  int
}

// sweeper runs the Fig 7 scan. Its per-site-column state is allocated once
// per Extract call, sized for the whole grid, and reused by every sweep.
type sweeper struct {
	openStart []int64 // top of the last line seen at each column
	openLow   []int   // that line's index, -1 = region boundary
}

func newSweeper(cols int) *sweeper {
	return &sweeper{openStart: make([]int64, cols), openLow: make([]int, cols)}
}

// sweep runs the Fig 7 scan over the given horizontal lines within region
// and calls emit with every vertical gap per site column: in line order the
// gap each line closes at each of its columns, then the gap each column
// leaves open at the region's top. Lines must be sorted by YBot
// (layout.HLines guarantees this). Line extents are clipped to the region.
func (s *sweeper) sweep(lines []layout.HLine, grid *layout.SiteGrid, region geom.Rect, emit func(gap)) {
	cLo, cHi := grid.ColRange(region.X1, region.X2)
	n := cHi - cLo
	if n <= 0 {
		return
	}
	openStart, openLow := s.openStart[:n], s.openLow[:n]
	for k := range openStart {
		openStart[k] = region.Y1
		openLow[k] = -1
	}
	for li, ln := range lines {
		yBot, yTop := ln.YBot, ln.YTop
		if yTop <= region.Y1 || yBot >= region.Y2 {
			continue
		}
		if yBot < region.Y1 {
			yBot = region.Y1
		}
		if yTop > region.Y2 {
			yTop = region.Y2
		}
		x1, x2 := ln.X1, ln.X2
		if x1 < region.X1 {
			x1 = region.X1
		}
		if x2 > region.X2 {
			x2 = region.X2
		}
		if x1 >= x2 {
			continue
		}
		gLo, gHi := grid.ColRange(x1, x2)
		for c := gLo; c < gHi; c++ {
			k := c - cLo
			if yBot > openStart[k] {
				emit(gap{col: c, yLo: openStart[k], yHi: yBot, lowIdx: openLow[k], highIdx: li})
			}
			if yTop > openStart[k] {
				openStart[k] = yTop
				openLow[k] = li
			}
		}
	}
	for c := cLo; c < cHi; c++ {
		k := c - cLo
		if region.Y2 > openStart[k] {
			emit(gap{col: c, yLo: openStart[k], yHi: region.Y2, lowIdx: openLow[k], highIdx: -1})
		}
	}
}

// fullRows returns the half-open row range of sites whose feature squares
// lie fully inside [yLo, yHi).
func fullRows(grid *layout.SiteGrid, yLo, yHi int64) (lo, hi int) {
	p := grid.Rule.Pitch()
	f := grid.Rule.Feature
	// Smallest r with SiteY(r) >= yLo.
	lo64 := ceilDiv(yLo-grid.Die.Y1, p)
	// Smallest r with SiteY(r)+f > yHi, i.e. r*p > yHi - Y1 - f.
	hi64 := floorDiv(yHi-grid.Die.Y1-f, p) + 1
	lo = clamp(lo64, grid.Rows)
	hi = clamp(hi64, grid.Rows)
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func clamp(v int64, n int) int {
	if v < 0 {
		return 0
	}
	if v > int64(n) {
		return n
	}
	return int(v)
}

// extraction is the state of one Extract call. Every sweep runs twice over
// the same lines: the counting pass tallies the columns each tile keeps, the
// fill pass writes them into the tile's window of one exact-size slab. Both
// passes decide which gaps to keep with the same code, so the fill pass
// writes exactly the columns the counting pass counted, in sweep order.
type extraction struct {
	grid   *layout.SiteGrid
	occ    *layout.Occupancy
	tiles  []TileColumns // NX·NY, tile (i, j) at i·NY + j
	counts []int         // columns kept per tile, from the counting pass
	fill   bool          // false: counting pass; true: fill pass
}

// keep clips gap g into tile t vertically. When the clipped part holds a free
// site whose feature square lies fully inside it, the counting pass counts a
// column for the tile and the fill pass appends it; lines is the line list
// the gap's indices refer to.
func (x *extraction) keep(t int, g gap, lines []layout.HLine) {
	rect := &x.tiles[t].Rect
	yLo, yHi := g.yLo, g.yHi
	if yLo < rect.Y1 {
		yLo = rect.Y1
	}
	if yHi > rect.Y2 {
		yHi = rect.Y2
	}
	if yLo >= yHi {
		return
	}
	rLo, rHi := fullRows(x.grid, yLo, yHi)
	if rLo >= rHi {
		return
	}
	capacity := x.occ.FreeInColumn(g.col, rLo, rHi)
	if capacity == 0 {
		return
	}
	if !x.fill {
		x.counts[t]++
		return
	}
	col := Column{
		Col:      int32(g.col),
		Capacity: int32(capacity),
		RowLo:    int32(rLo),
		RowHi:    int32(rHi),
		YLo:      g.yLo,
		YHi:      g.yHi,
		Low:      boundary,
		High:     boundary,
	}
	if g.lowIdx >= 0 {
		col.Low = lines[g.lowIdx].Ref
	}
	if g.highIdx >= 0 {
		col.High = lines[g.highIdx].Ref
	}
	tc := &x.tiles[t]
	tc.Cols = append(tc.Cols, col)
}

// startFill ends the counting pass: it gives every tile a full-slice window
// of one slab sized by the counts, so an append can never run into the next
// tile's columns.
func (x *extraction) startFill() {
	total := 0
	for _, n := range x.counts {
		total += n
	}
	slab := make([]Column, total)
	off := 0
	for t, n := range x.counts {
		if n > 0 {
			x.tiles[t].Cols = slab[off : off : off+n]
		}
		off += n
	}
	x.fill = true
}

// Extract computes the slack columns of every tile under the chosen
// definition. The returned slice is indexed [i][j] like the dissection's
// tiles. Capacity counts only sites that are free in occ and fully inside
// both the gap and the tile.
//
// It makes the same few allocations however large the layout: the sorted
// lines, the tile table, the sweep state, the per-tile counts (and, for
// DefI/DefII, the per-tile line buckets) and one column slab that every
// tile's Cols is a window of.
func Extract(l *layout.Layout, layer int, d *layout.Dissection, occ *layout.Occupancy, def Def) ([][]TileColumns, error) {
	if def != DefI && def != DefII && def != DefIII {
		return nil, fmt.Errorf("scanline: unknown definition %d", int(def))
	}
	grid := occ.Grid
	nTiles := d.NX * d.NY
	x := &extraction{grid: grid, occ: occ, tiles: make([]TileColumns, nTiles), counts: make([]int, nTiles)}
	out := make([][]TileColumns, d.NX)
	for i := range out {
		out[i] = x.tiles[i*d.NY : (i+1)*d.NY : (i+1)*d.NY]
		for j := range out[i] {
			out[i][j] = TileColumns{I: i, J: j, Rect: d.TileRect(i, j)}
		}
	}
	lines := l.HLines(layer)
	sw := newSweeper(grid.Cols)

	switch def {
	case DefIII:
		emit := func(g gap) {
			// A gap's sites live in one tile column (the tile containing the
			// site centers) but the gap may span several tiles vertically;
			// clip it into each.
			iTile, _ := d.TileIndex(grid.SiteCenterX(g.col), d.Die.Y1)
			_, j1 := d.TileIndex(d.Die.X1, clampY(g.yLo, d.Die))
			_, j2 := d.TileIndex(d.Die.X1, clampY(g.yHi-1, d.Die))
			for j := j1; j <= j2; j++ {
				x.keep(iTile*d.NY+j, g, lines)
			}
		}
		sw.sweep(lines, grid, d.Die, emit)
		x.startFill()
		sw.sweep(lines, grid, d.Die, emit)
	case DefI, DefII:
		// Bucket line indices per tile with a counting sort (each bucket in
		// line order), then sweep each tile with only its own lines.
		start, refs := bucketLines(lines, d)
		most := 0
		for t := 0; t < nTiles; t++ {
			most = max(most, start[t+1]-start[t])
		}
		tileLines := make([]layout.HLine, 0, most)
		t := 0 // the tile being swept; its lines are tileLines
		emit := func(g gap) {
			if def == DefI && (g.lowIdx < 0 || g.highIdx < 0) {
				return // boundary-bounded slack is unusable in Def I
			}
			x.keep(t, g, tileLines)
		}
		sweepTiles := func() {
			for t = 0; t < nTiles; t++ {
				tileLines = tileLines[:0]
				for _, li := range refs[start[t]:start[t+1]] {
					tileLines = append(tileLines, lines[li])
				}
				sw.sweep(tileLines, grid, x.tiles[t].Rect, emit)
			}
		}
		sweepTiles()
		x.startFill()
		sweepTiles()
	}
	for t, n := range x.counts {
		if len(x.tiles[t].Cols) != n {
			return nil, fmt.Errorf("scanline: tile (%d,%d) filled %d columns, counted %d",
				t/d.NY, t%d.NY, len(x.tiles[t].Cols), n)
		}
	}
	return out, nil
}

// bucketLines lists the indices of the lines overlapping each tile: tile t's
// are refs[start[t]:start[t+1]], ascending. A counting sort fills both in two
// passes over the lines, one allocation each.
func bucketLines(lines []layout.HLine, d *layout.Dissection) (start, refs []int) {
	start = make([]int, d.NX*d.NY+1)
	eachTile := func(ln layout.HLine, f func(t int)) {
		r := geom.Rect{X1: ln.X1, Y1: ln.YBot, X2: ln.X2, Y2: ln.YTop}.Intersect(d.Die)
		if r.Empty() {
			return
		}
		i1, j1 := d.TileIndex(r.X1, r.Y1)
		i2, j2 := d.TileIndex(r.X2-1, r.Y2-1)
		for i := i1; i <= i2; i++ {
			for j := j1; j <= j2; j++ {
				f(i*d.NY + j)
			}
		}
	}
	for _, ln := range lines {
		eachTile(ln, func(t int) { start[t]++ })
	}
	// Running sums: start[t] is where bucket t ends, start[NX·NY] the total.
	for t := 1; t < len(start); t++ {
		start[t] += start[t-1]
	}
	// Fill each bucket from its end down, walking the lines backwards, so
	// each bucket stays ascending and start[t] ends where bucket t begins.
	refs = make([]int, start[len(start)-1])
	for li := len(lines) - 1; li >= 0; li-- {
		eachTile(lines[li], func(t int) {
			start[t]--
			refs[start[t]] = li
		})
	}
	return start, refs
}

// clampY restricts y into the die's vertical extent (half-open).
func clampY(y int64, die geom.Rect) int64 {
	if y < die.Y1 {
		return die.Y1
	}
	if y >= die.Y2 {
		return die.Y2 - 1
	}
	return y
}

// Stats summarizes an extraction: total columns, total capacity, and how
// much capacity is attributed to at least one active line (the figure 4–6
// analog metric).
type Stats struct {
	Def        Def
	Columns    int
	Capacity   int
	Attributed int // capacity in columns with >= 1 bounding active line
	PairBound  int // capacity in columns with both bounds active lines
}

// Summarize computes extraction statistics over all tiles.
func Summarize(def Def, tiles [][]TileColumns) Stats {
	s := Stats{Def: def}
	for i := range tiles {
		for j := range tiles[i] {
			for k := range tiles[i][j].Cols {
				c := &tiles[i][j].Cols[k]
				s.Columns++
				capacity := int(c.Capacity)
				s.Capacity += capacity
				if c.HasLow() || c.HasHigh() {
					s.Attributed += capacity
				}
				if c.HasLow() && c.HasHigh() {
					s.PairBound += capacity
				}
			}
		}
	}
	return s
}
