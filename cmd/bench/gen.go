// gen.go makes every workload's inputs from the run's seed. Inputs are
// written as DEF files before any timing starts, so the program under test
// sees only DEF paths, exactly as a CLI or daemon user would hand them over.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"pilfill/internal/def"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/testcases"
)

// Input families. A workload names one; workloads sharing a family and seed
// see byte-identical inputs (chip-jittered and cluster-jittered do, so their
// fills must agree bit for bit).
const (
	familyT3       = "t3"
	familyPeriodic = "periodic"
	familyJittered = "jittered"
)

// sizes fixes the input dimensions. The full sizes keep one unit near half
// a second on a 2-core host, so one run takes a few dozen samples; the
// quick sizes exist for the package tests.
type sizes struct {
	t3Die         int64 // T3-family die side, nm (a multiple of the 51.2 um window)
	t3Nets        int
	periodicCells [2]int // chip cells x, y (one cell = 4 x 1 tiles)
	jitteredCells [2]int
	periodicGX    int // chip region grid columns
	jitteredGX    int
}

var (
	fullSizes = sizes{t3Die: 204800, t3Nets: 130,
		periodicCells: [2]int{20, 80}, jitteredCells: [2]int{12, 48}, periodicGX: 4, jitteredGX: 4}
	quickSizes = sizes{t3Die: 102400, t3Nets: 40,
		periodicCells: [2]int{4, 16}, jitteredCells: [2]int{4, 16}, periodicGX: 4, jitteredGX: 4}
)

// gx is a family's chip region grid width; the region grid changes the
// order delay subtotals are summed in, so every workload of a family uses
// the same one.
func (sz sizes) gx(family string) int {
	switch family {
	case familyPeriodic:
		return sz.periodicGX
	case familyJittered:
		return sz.jitteredGX
	}
	return 0
}

// inputSeed derives the generator seed of pool input k for a run seed, so
// two run seeds never share an input.
func inputSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// generate builds pool input k of a family.
func generate(family string, sz sizes, seed int64, k int) (*layout.Layout, error) {
	s := inputSeed(seed, k)
	switch family {
	case familyT3:
		return t3Layout(sz.t3Die, sz.t3Nets, s)
	case familyPeriodic:
		return periodicChip(sz.periodicCells[0], sz.periodicCells[1], s)
	case familyJittered:
		return jitteredChip(sz.jitteredCells[0], sz.jitteredCells[1], s)
	}
	return nil, fmt.Errorf("unknown input family %q", family)
}

// writeInputs generates a family's pool and writes each input as DEF into
// dir, returning the paths in pool order.
func writeInputs(dir, family string, sz sizes, seed int64, pool int) ([]string, error) {
	paths := make([]string, pool)
	for k := range paths {
		l, err := generate(family, sz, seed, k)
		if err != nil {
			return nil, fmt.Errorf("generate %s input %d: %w", family, k, err)
		}
		paths[k] = filepath.Join(dir, fmt.Sprintf("%s-%d-%d.def", family, seed, k))
		f, err := os.Create(paths[k])
		if err != nil {
			return nil, err
		}
		err = def.Write(f, l)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("write %s: %w", paths[k], err)
		}
	}
	return paths, nil
}

// t3Layout is the T3 routed-layout recipe (multi-sink trunk-and-branch
// nets) scaled to a smaller die: trunk and branch lengths keep T3's
// proportions to the die side.
func t3Layout(die int64, nets int, seed int64) (*layout.Layout, error) {
	spec := testcases.T3()
	scale := func(v int64) int64 { return v * die / spec.DieSide }
	spec.TrunkMin, spec.TrunkMax, spec.BranchMax = scale(spec.TrunkMin), scale(spec.TrunkMax), scale(spec.BranchMax)
	spec.DieSide, spec.NumNets, spec.Seed = die, nets, seed
	return testcases.Generate(spec)
}

// cellVariant maps a variant number in [0, 64) to the cell's line-pair
// shift (8 vertical offsets, 100 nm apart) and end inset (8 insets, one
// 200 nm fill pitch apart).
func cellVariant(v int) (dy, inset int64) {
	return int64(v%8)*100 - 300, 400 + int64(v/8)*200
}

// periodicChip is testcases.GenerateChip with one seed-drawn variant applied
// to every cell: still exactly periodic, so nearly every tile is a memo hit,
// but the seed changes the geometry the run works on.
func periodicChip(cx, cy int, seed int64) (*layout.Layout, error) {
	spec := testcases.Chip(cx, cy)
	dy, inset := cellVariant(rand.New(rand.NewSource(seed)).Intn(64))
	spec.YLow += dy
	spec.YHigh += dy
	spec.Inset = inset
	return testcases.GenerateChip(spec)
}

// jitteredChip uses GenerateChip's cell grammar — one two-net horizontal
// line pair per 12.8 x 3.2 um cell — but draws each cell's variant from the
// seed, so neighbouring tiles rarely share a solve pattern and the memo is
// bypassed.
func jitteredChip(cx, cy int, seed int64) (*layout.Layout, error) {
	spec := testcases.Chip(cx, cy)
	rng := rand.New(rand.NewSource(seed))
	l := &layout.Layout{
		Name:   "chip_jittered",
		Die:    geom.Rect{X2: int64(cx) * spec.CellW, Y2: int64(cy) * spec.CellH},
		Layers: []layout.Layer{{Name: "m3", Dir: layout.Horizontal, Width: spec.Width}},
		Nets:   make([]*layout.Net, 0, 2*cx*cy),
	}
	for y := 0; y < cy; y++ {
		for x := 0; x < cx; x++ {
			dy, inset := cellVariant(rng.Intn(64))
			x0 := int64(x)*spec.CellW + inset
			x1 := int64(x+1)*spec.CellW - inset
			for k, yOff := range [2]int64{spec.YLow, spec.YHigh} {
				yy := int64(y)*spec.CellH + yOff + dy
				a, b := geom.Point{X: x0, Y: yy}, geom.Point{X: x1, Y: yy}
				l.Nets = append(l.Nets, &layout.Net{
					Name:     fmt.Sprintf("c%d_%d_%d", x, y, k),
					Source:   layout.Pin{P: a},
					Sinks:    []layout.Pin{{P: b}},
					Segments: []layout.Segment{{Layer: 0, A: a, B: b, Width: spec.Width}},
				})
			}
		}
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("jittered chip: %w", err)
	}
	return l, nil
}
