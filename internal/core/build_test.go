package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pilfill/internal/density"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/scanline"
	"pilfill/internal/testcases"
)

// sortedFreeRows is the order appendFreeRows replaced, kept as its
// oracle: scan the free rows, then sort by distance from the gap center
// with the row index breaking ties.
func sortedFreeRows(e *Engine, col *scanline.Column) []int {
	var free []int
	for r := int(col.RowLo); r < int(col.RowHi); r++ {
		if !e.Occ.Blocked(int(col.Col), r) {
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
// appendFreeRows asked for the whole span returns the full sorted order,
// and asked for m rows after a non-empty prefix appends that order's first m.
func TestFreeRowsCenterOutMatchesSortOrder(t *testing.T) {
	rule := layout.FillRule{Feature: 301, Gap: 99, Buffer: 150}
	grid, err := layout.NewSiteGrid(geom.Rect{X1: 0, Y1: -20017, X2: 32000, Y2: 30000}, rule)
	if err != nil {
		t.Fatal(err)
	}
	// Each blocked site gets a 2 nm square at its center, which its own
	// buffer-expanded feature square covers and no neighbor's does.
	rng := rand.New(rand.NewSource(15))
	want := make([]bool, grid.Cols*grid.Rows)
	blockers := &layout.Net{}
	for c := 0; c < grid.Cols; c++ {
		p := rng.Float64()
		switch c % 8 {
		case 0:
			p = 1 // fully blocked
		case 1:
			p = 0 // fully free
		}
		for r := 0; r < grid.Rows; r++ {
			if want[c*grid.Rows+r] = rng.Float64() < p; want[c*grid.Rows+r] {
				at := geom.Point{X: grid.SiteCenterX(c), Y: grid.SiteY(r) + rule.Feature/2}
				blockers.Segments = append(blockers.Segments, layout.Segment{A: at, B: at, Width: 2})
			}
		}
	}
	e := &Engine{Grid: grid, Occ: layout.NewOccupancy(&layout.Layout{Nets: []*layout.Net{blockers}}, grid, 0), Rule: rule}
	for c := 0; c < grid.Cols; c++ {
		for r := 0; r < grid.Rows; r++ {
			if e.Occ.Blocked(c, r) != want[c*grid.Rows+r] {
				t.Fatalf("site (%d,%d): blocked %v, want %v", c, r, e.Occ.Blocked(c, r), want[c*grid.Rows+r])
			}
		}
	}
	pitch := rule.Pitch()
	var buf []int
	for trial := 0; trial < 20000; trial++ {
		lo := rng.Intn(grid.Rows + 1)
		hi := lo + rng.Intn(grid.Rows+1-lo)
		col := scanline.Column{Col: int32(rng.Intn(grid.Cols)), RowLo: int32(lo), RowHi: int32(hi)}
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
		got, want := e.appendFreeRows(nil, &cv, hi-lo), sortedFreeRows(e, &col)
		if !slices.Equal(got, want) {
			t.Fatalf("column %d rows [%d,%d) gap [%d,%d]:\n got %v\nwant %v",
				col.Col, lo, hi, col.YLo, col.YHi, got, want)
		}
		m := rng.Intn(hi - lo + 2)
		buf = e.appendFreeRows(append(buf[:0], -1), &cv, m)
		if n := min(m, len(want)); buf[0] != -1 || !slices.Equal(buf[1:], want[:n]) {
			t.Fatalf("column %d rows [%d,%d): %d rows after a prefix gave %v, want [-1] + %v",
				col.Col, lo, hi, m, buf, want[:n])
		}
	}
}

// TestBuiltFreeRowsMatchSortOrder checks place on every column of a real
// engine's instances: m features land on the first m rows of the
// center-out order, in ascending row order, for every m up to the capacity.
func TestBuiltFreeRowsMatchSortOrder(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	n := 0
	var rowBuf []int
	for _, in := range mustInstances(t, eng, budget) {
		a := make(Assignment, len(in.Columns))
		for k := range in.Columns {
			cv := &in.Columns[k]
			want := sortedFreeRows(eng, cv.Col)
			for m := 1; m <= cv.MaxM; m++ {
				a[k] = m
				fs := &layout.FillSet{}
				err := eng.place(fs, in, a, &rowBuf)
				if m > len(want) {
					if err == nil {
						t.Fatalf("tile (%d,%d) column %d: %d features on %d free rows placed", in.I, in.J, k, m, len(want))
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				rows := slices.Clone(want[:m])
				slices.Sort(rows)
				for i, f := range fs.Fills {
					if f.Col != int(cv.Col.Col) || i >= m || f.Row != rows[i] {
						t.Fatalf("tile (%d,%d) column %d, m = %d: placed %v, want rows %v in column %d",
							in.I, in.J, k, m, fs.Fills, rows, cv.Col.Col)
					}
				}
				if len(fs.Fills) != m {
					t.Fatalf("tile (%d,%d) column %d: placed %d of %d", in.I, in.J, k, len(fs.Fills), m)
				}
			}
			a[k] = 0
			n++
		}
	}
	if n == 0 {
		t.Fatal("no columns built")
	}
}

// TestBuildInstanceAllocs: once the capacitance tables are cached, an
// Instances call allocates the same constant number of times whatever it
// builds — its slabs are sized by a counting pass, not grown per tile or per
// column. Two engines with different tile and column counts must agree.
func TestBuildInstanceAllocs(t *testing.T) {
	small, smallBudget := buildEngine(t, false, scanline.DefIII)
	spec := testcases.T1()
	l, err := testcases.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := layout.NewDissection(l.Die, testcases.WindowNM(32), 4)
	if err != nil {
		t.Fatal(err)
	}
	t1, t1Budget := tableEngine(t, l, dis, spec.Rule)
	const maxAllocs = 8
	var counts [2]float64
	var sizes [2][2]int
	for i, c := range []struct {
		eng    *Engine
		budget density.Budget
	}{{small, smallBudget}, {t1, t1Budget}} {
		instances := mustInstances(t, c.eng, c.budget) // warms the table cache
		for _, in := range instances {
			sizes[i][1] += len(in.Columns)
		}
		sizes[i][0] = len(instances)
		counts[i] = testing.AllocsPerRun(5, func() {
			if _, err := c.eng.Instances(c.budget); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("%v allocs on %v tiles/columns", counts, sizes)
	if sizes[0] == sizes[1] {
		t.Fatalf("both engines build %d tiles of %d columns", sizes[0][0], sizes[0][1])
	}
	if counts[0] != counts[1] || counts[0] > maxAllocs {
		t.Fatalf("Instances allocates %.0f times on %d tiles / %d columns and %.0f on %d / %d, want one constant <= %d",
			counts[0], sizes[0][0], sizes[0][1], counts[1], sizes[1][0], sizes[1][1], maxAllocs)
	}
}
