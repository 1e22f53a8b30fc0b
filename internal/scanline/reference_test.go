package scanline

import (
	"sort"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// This file keeps the extraction Extract replaced, as the oracle that
// TestExtractMatchesReference compares it with: every die-wide gap
// materialized before clipping, per-tile column lists grown by append,
// per-tile line buckets of appends, and the 96-byte column with an explicit
// X and HasLow/HasHigh flags. It sorts its lines with sort.Slice as
// layout.HLines used to.

// refColumn is the column the reference extraction produced.
type refColumn struct {
	Col             int
	X               int64
	YLo, YHi        int64
	Capacity        int
	RowLo, RowHi    int
	HasLow, HasHigh bool
	Low, High       layout.SegRef // valid when the corresponding Has* is true
}

type refTileColumns struct {
	I, J int
	Rect geom.Rect
	Cols []refColumn
}

func referenceHLines(l *layout.Layout, layer int) []layout.HLine {
	var out []layout.HLine
	for ni, n := range l.Nets {
		for si, s := range n.Segments {
			if s.Layer != layer || !s.Horizontal() || s.Length() == 0 {
				continue
			}
			r := s.Rect()
			out = append(out, layout.HLine{
				Ref: layout.SegRef{Net: ni, Seg: si},
				X1:  r.X1, X2: r.X2,
				YBot: r.Y1, YTop: r.Y2,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].YBot != out[b].YBot {
			return out[a].YBot < out[b].YBot
		}
		return out[a].X1 < out[b].X1
	})
	return out
}

func referenceSweep(lines []layout.HLine, grid *layout.SiteGrid, region geom.Rect) []gap {
	cLo, cHi := grid.ColRange(region.X1, region.X2)
	n := cHi - cLo
	if n <= 0 {
		return nil
	}
	openStart := make([]int64, n)
	openLow := make([]int, n)
	for i := range openStart {
		openStart[i] = region.Y1
		openLow[i] = -1
	}
	var gaps []gap
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
				gaps = append(gaps, gap{col: c, yLo: openStart[k], yHi: yBot, lowIdx: openLow[k], highIdx: li})
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
			gaps = append(gaps, gap{col: c, yLo: openStart[k], yHi: region.Y2, lowIdx: openLow[k], highIdx: -1})
		}
	}
	return gaps
}

func referenceExtract(l *layout.Layout, layer int, d *layout.Dissection, occ *layout.Occupancy, def Def) [][]refTileColumns {
	grid := occ.Grid
	out := make([][]refTileColumns, d.NX)
	for i := range out {
		out[i] = make([]refTileColumns, d.NY)
		for j := range out[i] {
			out[i][j] = refTileColumns{I: i, J: j, Rect: d.TileRect(i, j)}
		}
	}
	lines := referenceHLines(l, layer)

	appendGap := func(tc *refTileColumns, g gap, lines []layout.HLine) {
		yLo, yHi := g.yLo, g.yHi
		if yLo < tc.Rect.Y1 {
			yLo = tc.Rect.Y1
		}
		if yHi > tc.Rect.Y2 {
			yHi = tc.Rect.Y2
		}
		if yLo >= yHi {
			return
		}
		rLo, rHi := fullRows(grid, yLo, yHi)
		if rLo >= rHi {
			return
		}
		capacity := occ.FreeInColumn(g.col, rLo, rHi)
		if capacity == 0 {
			return
		}
		col := refColumn{
			Col:      g.col,
			X:        grid.SiteCenterX(g.col),
			YLo:      g.yLo,
			YHi:      g.yHi,
			Capacity: capacity,
			RowLo:    rLo,
			RowHi:    rHi,
		}
		if g.lowIdx >= 0 {
			col.HasLow = true
			col.Low = lines[g.lowIdx].Ref
		}
		if g.highIdx >= 0 {
			col.HasHigh = true
			col.High = lines[g.highIdx].Ref
		}
		tc.Cols = append(tc.Cols, col)
	}

	switch def {
	case DefIII:
		for _, g := range referenceSweep(lines, grid, d.Die) {
			xc := grid.SiteX(g.col) + grid.Rule.Feature/2
			iTile, _ := d.TileIndex(xc, d.Die.Y1)
			_, j1 := d.TileIndex(d.Die.X1, clampY(g.yLo, d.Die))
			_, j2 := d.TileIndex(d.Die.X1, clampY(g.yHi-1, d.Die))
			for j := j1; j <= j2; j++ {
				appendGap(&out[iTile][j], g, lines)
			}
		}
	case DefI, DefII:
		buckets := make([][][]int, d.NX)
		for i := range buckets {
			buckets[i] = make([][]int, d.NY)
		}
		for li, ln := range lines {
			r := geom.Rect{X1: ln.X1, Y1: ln.YBot, X2: ln.X2, Y2: ln.YTop}.Intersect(d.Die)
			if r.Empty() {
				continue
			}
			i1, j1 := d.TileIndex(r.X1, r.Y1)
			i2, j2 := d.TileIndex(r.X2-1, r.Y2-1)
			for i := i1; i <= i2; i++ {
				for j := j1; j <= j2; j++ {
					buckets[i][j] = append(buckets[i][j], li)
				}
			}
		}
		for i := 0; i < d.NX; i++ {
			for j := 0; j < d.NY; j++ {
				tileLines := make([]layout.HLine, 0, len(buckets[i][j]))
				for _, li := range buckets[i][j] {
					tileLines = append(tileLines, lines[li])
				}
				for _, g := range referenceSweep(tileLines, grid, out[i][j].Rect) {
					if def == DefI && (g.lowIdx < 0 || g.highIdx < 0) {
						continue
					}
					appendGap(&out[i][j], g, tileLines)
				}
			}
		}
	}
	return out
}
