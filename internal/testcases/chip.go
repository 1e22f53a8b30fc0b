// chip.go generates the synthetic repeating-pattern chip behind the
// cluster chip jobs, the repo benchmark's chip workloads and the chip-scale
// memo tests: one cell — a pair of short horizontal local lines — tiled
// across the die with exact periodicity. Every interior cell is a geometric
// translate of every other, so under a fixed dissection the distinct
// per-tile solve patterns number in the dozens while the tile count runs to
// millions. That ratio (tiles per distinct pattern, the pattern repetition
// factor) is what the chip-scale solve memo exploits.
package testcases

import (
	"fmt"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// ChipSpec parameterizes the repeating-pattern chip. The die is
// CellsX*CellW x CellsY*CellH; each cell holds one horizontal line pair,
// each line its own two-pin net, so the electrical context of every cell
// copy is identical and translated tiles fingerprint to the same memo key.
type ChipSpec struct {
	Name           string
	CellsX, CellsY int
	CellW, CellH   int64 // cell dimensions, nm
	Width          int64 // wire width, nm
	Inset          int64 // wire end inset from the vertical cell edges, nm
	YLow, YHigh    int64 // line-pair centerlines within the cell, nm
	Rule           layout.FillRule
}

// Chip returns the default chip spec: 12800 x 3200 nm cells (4 x 1 tiles
// under the chip jobs' default dissection of window 12800, r = 4) with a
// 300 nm line pair at 17% drawn density.
func Chip(cellsX, cellsY int) ChipSpec {
	return ChipSpec{
		Name:   "chip",
		CellsX: cellsX, CellsY: cellsY,
		CellW: 12800, CellH: 3200,
		Width: 300,
		Inset: 800,
		YLow:  1100, YHigh: 2100,
		Rule: layout.FillRule{Feature: 150, Gap: 50, Buffer: 150},
	}
}

// GenerateChip builds the repeating-pattern layout. Each cell contributes
// two single-segment nets (source at the left end, sink at the right), so
// RC analysis sees the same local context in every copy.
func GenerateChip(spec ChipSpec) (*layout.Layout, error) {
	if spec.CellsX <= 0 || spec.CellsY <= 0 {
		return nil, fmt.Errorf("testcases: chip cells %dx%d", spec.CellsX, spec.CellsY)
	}
	if spec.Inset*2 >= spec.CellW || spec.YHigh >= spec.CellH || spec.YLow >= spec.YHigh {
		return nil, fmt.Errorf("testcases: chip cell geometry %+v", spec)
	}
	l := &layout.Layout{
		Name: spec.Name,
		Die:  geom.Rect{X2: int64(spec.CellsX) * spec.CellW, Y2: int64(spec.CellsY) * spec.CellH},
		Layers: []layout.Layer{
			{Name: "m3", Dir: layout.Horizontal, Width: spec.Width},
		},
	}
	l.Nets = make([]*layout.Net, 0, 2*spec.CellsX*spec.CellsY)
	for cy := 0; cy < spec.CellsY; cy++ {
		for cx := 0; cx < spec.CellsX; cx++ {
			x0 := int64(cx)*spec.CellW + spec.Inset
			x1 := int64(cx+1)*spec.CellW - spec.Inset
			base := int64(cy) * spec.CellH
			for k, yOff := range [2]int64{spec.YLow, spec.YHigh} {
				y := base + yOff
				a, b := geom.Point{X: x0, Y: y}, geom.Point{X: x1, Y: y}
				l.Nets = append(l.Nets, &layout.Net{
					Name:   fmt.Sprintf("c%d_%d_%d", cx, cy, k),
					Source: layout.Pin{P: a},
					Sinks:  []layout.Pin{{P: b}},
					Segments: []layout.Segment{
						{Layer: 0, A: a, B: b, Width: spec.Width},
					},
				})
			}
		}
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("testcases: chip: %w", err)
	}
	return l, nil
}
