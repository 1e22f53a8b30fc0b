package scanline

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/testcases"
)

var allDefs = []Def{DefI, DefII, DefIII}

// sameColumn reports whether c holds exactly what the reference column r
// did: X is derived from Col, and a boundary side must carry the boundary
// sentinel.
func sameColumn(grid *layout.SiteGrid, c *Column, r *refColumn) bool {
	if int(c.Col) != r.Col || grid.SiteCenterX(int(c.Col)) != r.X ||
		c.YLo != r.YLo || c.YHi != r.YHi || int(c.Capacity) != r.Capacity ||
		int(c.RowLo) != r.RowLo || int(c.RowHi) != r.RowHi ||
		c.HasLow() != r.HasLow || c.HasHigh() != r.HasHigh {
		return false
	}
	wantLow, wantHigh := boundary, boundary
	if r.HasLow {
		wantLow = r.Low
	}
	if r.HasHigh {
		wantHigh = r.High
	}
	return c.Low == wantLow && c.High == wantHigh
}

// requireMatchesReference extracts l under def with Extract and with the
// reference extraction and fails unless every tile carries the same columns
// in the same order. It returns the number of columns compared.
func requireMatchesReference(t *testing.T, label string, l *layout.Layout, d *layout.Dissection, occ *layout.Occupancy, def Def) int {
	t.Helper()
	got, err := Extract(l, 0, d, occ, def)
	if err != nil {
		t.Fatalf("%s %v: %v", label, def, err)
	}
	want := referenceExtract(l, 0, d, occ, def)
	if len(got) != len(want) {
		t.Fatalf("%s %v: %d tile columns, reference %d", label, def, len(got), len(want))
	}
	n := 0
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s %v: column %d has %d tiles, reference %d", label, def, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			g, w := &got[i][j], &want[i][j]
			if g.I != w.I || g.J != w.J || g.Rect != w.Rect || len(g.Cols) != len(w.Cols) {
				t.Fatalf("%s %v: tile (%d,%d) is (%d,%d) %v with %d columns, reference (%d,%d) %v with %d",
					label, def, i, j, g.I, g.J, g.Rect, len(g.Cols), w.I, w.J, w.Rect, len(w.Cols))
			}
			for k := range w.Cols {
				if !sameColumn(occ.Grid, &g.Cols[k], &w.Cols[k]) {
					t.Fatalf("%s %v: tile (%d,%d) column %d is %+v, reference %+v",
						label, def, i, j, k, g.Cols[k], w.Cols[k])
				}
			}
			n += len(w.Cols)
		}
	}
	return n
}

// TestExtractMatchesReference holds Extract to the extraction it replaced on
// T1, T2 and T3 under every definition and every W/r row of the paper's
// tables, and on a seed-drawn jittered chip.
func TestExtractMatchesReference(t *testing.T) {
	for _, spec := range []testcases.Spec{testcases.T1(), testcases.T2(), testcases.T3()} {
		l, err := testcases.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := layout.NewSiteGrid(l.Die, spec.Rule)
		if err != nil {
			t.Fatal(err)
		}
		occ := layout.NewOccupancy(l, grid, 0)
		for _, w := range []int{32, 20} {
			for _, r := range []int{2, 4, 8} {
				d, err := layout.NewDissection(l.Die, testcases.WindowNM(w), r)
				if err != nil {
					t.Fatal(err)
				}
				for _, def := range allDefs {
					label := fmt.Sprintf("%s/%d/%d", spec.Name, w, r)
					if requireMatchesReference(t, label, l, d, occ, def) == 0 {
						t.Fatalf("%s %v: no columns", label, def)
					}
				}
			}
		}
	}

	spec := testcases.Chip(12, 24)
	l := jitteredChip(spec, 7)
	grid, err := layout.NewSiteGrid(l.Die, spec.Rule)
	if err != nil {
		t.Fatal(err)
	}
	occ := layout.NewOccupancy(l, grid, 0)
	for _, r := range []int{2, 4} {
		d, err := layout.NewDissection(l.Die, 12800, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, def := range allDefs {
			if requireMatchesReference(t, fmt.Sprintf("jittered chip r=%d", r), l, d, occ, def) == 0 {
				t.Fatalf("jittered chip r=%d %v: no columns", r, def)
			}
		}
	}
}

// jitteredChip is testcases.Chip's cell grammar (one two-net horizontal line
// pair per cell) with each cell's pair shifted by one of 8 vertical offsets
// and its ends inset by one of 8 insets, the variant drawn per cell from the
// seed.
func jitteredChip(spec testcases.ChipSpec, seed int64) *layout.Layout {
	rng := rand.New(rand.NewSource(seed))
	var wires []geom.Rect
	for y := 0; y < spec.CellsY; y++ {
		for x := 0; x < spec.CellsX; x++ {
			v := rng.Intn(64)
			dy, inset := int64(v%8)*100-300, 400+int64(v/8)*200
			for _, yOff := range [2]int64{spec.YLow, spec.YHigh} {
				yc := int64(y)*spec.CellH + yOff + dy
				wires = append(wires, geom.Rect{
					X1: int64(x)*spec.CellW + inset - spec.Width/2, Y1: yc - spec.Width/2,
					X2: int64(x+1)*spec.CellW - inset + spec.Width/2, Y2: yc + spec.Width/2,
				})
			}
		}
	}
	return buildLayout(geom.Rect{X2: int64(spec.CellsX) * spec.CellW, Y2: int64(spec.CellsY) * spec.CellH}, wires)
}

// randomWires draws the horizontal wires of the property tests' random
// layouts on a 16000 nm die. snap > 0 rounds every coordinate to a multiple
// of snap, so many lines tie on (YBot, X1) and overlap.
func randomWires(rng *rand.Rand, n int, snap int64) []geom.Rect {
	wires := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		y := int64(500 + rng.Intn(14000))
		x1 := int64(rng.Intn(10000))
		x2 := x1 + 2000 + int64(rng.Intn(6000))
		if snap > 0 {
			y, x1, x2 = y/snap*snap, x1/snap*snap, x2/snap*snap
		}
		if x2 > 15800 {
			x2 = 15800
		}
		wires = append(wires, geom.Rect{X1: x1, Y1: y, X2: x2, Y2: y + 200})
	}
	return wires
}

// TestExtractMatchesReferenceRandom compares Extract with the reference on
// random layouts like the property tests', with and without tied lines,
// under every definition and three dissections.
func TestExtractMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	die := geom.Rect{X1: 0, Y1: 0, X2: 16000, Y2: 16000}
	grid, err := layout.NewSiteGrid(die, rule)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		snap := int64(0)
		if trial%3 == 2 {
			snap = 1000
		}
		l := buildLayout(die, randomWires(rng, rng.Intn(12), snap))
		occ := layout.NewOccupancy(l, grid, 0)
		for _, dr := range [][2]int64{{8000, 2}, {4000, 2}, {16000, 4}} {
			d, err := layout.NewDissection(die, dr[0], int(dr[1]))
			if err != nil {
				t.Fatal(err)
			}
			for _, def := range allDefs {
				requireMatchesReference(t, fmt.Sprintf("trial %d W=%d r=%d", trial, dr[0], dr[1]), l, d, occ, def)
			}
		}
	}
}

// TestExtractAllocs holds Extract to one constant number of allocations per
// call under each definition, on a small layout and one with 16 times the
// die area and lines.
func TestExtractAllocs(t *testing.T) {
	const maxAllocs = 10
	type input struct {
		l   *layout.Layout
		d   *layout.Dissection
		occ *layout.Occupancy
	}
	mk := func(side int64, nWires int, window int64) input {
		rng := rand.New(rand.NewSource(int64(nWires)))
		die := geom.Rect{X2: side, Y2: side}
		var wires []geom.Rect
		for i := 0; i < nWires; i++ {
			y := 500 + rng.Int63n(side-1000)
			x1 := rng.Int63n(side / 2)
			wires = append(wires, geom.Rect{X1: x1, Y1: y, X2: x1 + side/4, Y2: y + 200})
		}
		l := buildLayout(die, wires)
		d, err := layout.NewDissection(die, window, 2)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := layout.NewSiteGrid(die, rule)
		if err != nil {
			t.Fatal(err)
		}
		return input{l, d, layout.NewOccupancy(l, grid, 0)}
	}
	inputs := [2]input{mk(16000, 24, 8000), mk(64000, 384, 8000)}
	for _, def := range allDefs {
		var counts [2]float64
		var cols [2]int
		for k, in := range inputs {
			tiles, err := Extract(in.l, 0, in.d, in.occ, def)
			if err != nil {
				t.Fatal(err)
			}
			cols[k] = Summarize(def, tiles).Columns
			counts[k] = testing.AllocsPerRun(20, func() {
				if _, err := Extract(in.l, 0, in.d, in.occ, def); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%v: %v allocs on %v columns", def, counts, cols)
		if cols[1] < 10*cols[0] {
			t.Fatalf("%v: large layout has %d columns, small %d; want at least 10x", def, cols[1], cols[0])
		}
		if counts[0] != counts[1] || counts[0] > maxAllocs {
			t.Fatalf("%v: Extract allocates %.0f times on %d columns and %.0f on %d, want one constant <= %d",
				def, counts[0], cols[0], counts[1], cols[1], maxAllocs)
		}
	}
}

func TestColumnSize(t *testing.T) {
	if n := unsafe.Sizeof(Column{}); n > 64 {
		t.Fatalf("Column is %d bytes, want <= 64", n)
	}
}
