package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/scanline"
)

// sortedFreeRows is the order freeRowsCenterOut replaced, kept as its
// oracle: scan the free rows, then sort by distance from the gap center
// with the row index breaking ties.
func sortedFreeRows(e *Engine, col *scanline.Column) []int {
	var free []int
	for r := col.RowLo; r < col.RowHi; r++ {
		if !e.Occ.Blocked(col.Col, r) {
			free = append(free, r)
		}
	}
	center := (col.YLo + col.YHi) / 2
	sort.Slice(free, func(a, b int) bool {
		da := absI64(e.Grid.SiteY(free[a]) + e.Rule.Feature/2 - center)
		db := absI64(e.Grid.SiteY(free[b]) + e.Rule.Feature/2 - center)
		if da != db {
			return da < db
		}
		return free[a] < free[b]
	})
	return free
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestFreeRowsCenterOutMatchesSortOrder draws random occupancy (including
// fully blocked and fully free columns), odd and even row spans, and gap
// centers inside, on the edge of and outside the span, on a grid whose die
// starts below zero and whose odd feature size makes Feature/2 truncate.
func TestFreeRowsCenterOutMatchesSortOrder(t *testing.T) {
	rule := layout.FillRule{Feature: 301, Gap: 99, Buffer: 150}
	grid, err := layout.NewSiteGrid(geom.Rect{X1: 0, Y1: -20017, X2: 32000, Y2: 30000}, rule)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Grid: grid, Occ: layout.NewOccupancy(&layout.Layout{}, grid, 0), Rule: rule}
	rng := rand.New(rand.NewSource(15))
	for c := 0; c < grid.Cols; c++ {
		p := rng.Float64()
		switch c % 8 {
		case 0:
			p = 1 // fully blocked
		case 1:
			p = 0 // fully free
		}
		for r := 0; r < grid.Rows; r++ {
			e.Occ.SetBlocked(c, r, rng.Float64() < p)
		}
	}
	pitch := rule.Pitch()
	for trial := 0; trial < 20000; trial++ {
		lo := rng.Intn(grid.Rows + 1)
		hi := lo + rng.Intn(grid.Rows+1-lo)
		col := scanline.Column{Col: rng.Intn(grid.Cols), RowLo: lo, RowHi: hi}
		// The center lands anywhere from well below the span to well above
		// it, on row edges and feature centers as often as between them.
		y := grid.SiteY(lo) + int64(rng.Intn(hi-lo+20)-10)*pitch
		switch rng.Intn(3) {
		case 0:
			y += rule.Feature / 2
		case 1:
			y += rng.Int63n(pitch)
		}
		half := rng.Int63n(3 * pitch)
		col.YLo, col.YHi = y-half, y+half+rng.Int63n(2)
		cv := ColumnVar{Col: &col}
		got, want := e.freeRowsCenterOut(&cv), sortedFreeRows(e, &col)
		if !slices.Equal(got, want) {
			t.Fatalf("column %d rows [%d,%d) gap [%d,%d]:\n got %v\nwant %v",
				col.Col, lo, hi, col.YLo, col.YHi, got, want)
		}
	}
}

// TestBuiltFreeRowsMatchSortOrder checks the order memoized on every column
// of a real engine's instances.
func TestBuiltFreeRowsMatchSortOrder(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	n := 0
	for _, in := range mustInstances(t, eng, budget) {
		for k := range in.Columns {
			cv := &in.Columns[k]
			if want := sortedFreeRows(eng, cv.Col); !slices.Equal(cv.FreeRows, want) {
				t.Fatalf("tile (%d,%d) column %d: FreeRows %v, want %v", in.I, in.J, k, cv.FreeRows, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no columns built")
	}
}

// TestBuildInstanceAllocs: building a tile's instance costs at most two
// allocations per column (its cost-curve slab and its free rows) plus a
// constant, once the capacitance tables are cached.
func TestBuildInstanceAllocs(t *testing.T) {
	eng, _ := buildEngine(t, false, scanline.DefIII)
	bi, bj := 0, 0
	for i := range eng.Tiles {
		for j := range eng.Tiles[i] {
			if len(eng.Tiles[i][j].Cols) > len(eng.Tiles[bi][bj].Cols) {
				bi, bj = i, j
			}
		}
	}
	cols := len(eng.Tiles[bi][bj].Cols)
	if cols < 10 {
		t.Fatalf("largest tile has only %d columns", cols)
	}
	if _, err := eng.buildInstance(bi, bj, 1); err != nil { // warm the table cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.buildInstance(bi, bj, 1); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2*cols + 4); allocs > limit {
		t.Fatalf("buildInstance on %d columns: %.0f allocs, want at most %.0f", cols, allocs, limit)
	}
}
