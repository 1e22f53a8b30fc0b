// Package core implements the paper's contribution: the MDFC ("minimum
// delay, fill-constrained") PIL-Fill problem and its solvers. For every tile
// of the fixed dissection an independent instance is built from the tile's
// slack columns (package scanline), the capacitance lookup tables (package
// cap), and the nets' Elmore quantities (package rc); the prescribed fill
// amount comes from the density budgeter (package density). Solvers:
//
//	Normal         the performance-oblivious baseline of Chen et al. [3]
//	Greedy         Fig 8: whole columns in order of estimated delay cost
//	ILPI           Eqs 10–14: integer program, linearized capacitance
//	ILPII          Eqs 16–23: integer program over the exact lookup table
//	DP             exact pseudo-polynomial dynamic program (cross-check)
//	MarginalGreedy per-feature marginal-cost greedy (ablation extension)
//
// All methods place exactly the same number of features per tile, so their
// density control is identical; they differ only in *where* the fill lands
// and therefore in delay impact.
package core

import (
	"fmt"

	"pilfill/internal/cap"
	"pilfill/internal/scanline"
)

// ColumnVar is one decision variable of a tile instance: a slack column with
// its fill-count cost curve.
type ColumnVar struct {
	Col *scanline.Column

	// MaxM is the largest admissible fill count (the column capacity; always
	// within the capacitance model's validity range because the site pitch
	// exceeds the feature size).
	MaxM int

	// CostExact[m] is the delay-objective cost of placing m features
	// (r̂·ΔC_exact(m), r̂ being RHatW under Config.Weighted and RHatU
	// otherwise); index 0 is 0. Nil for columns with no bounding active line
	// (their fill is free under the paper's model). The only curve an
	// instance stores: built instances carve it from one slab per Instances
	// call.
	CostExact []float64

	// LinearSlope is the per-feature cost under the Eq 6 linearization,
	// the coefficient ILP-I optimizes.
	LinearSlope float64

	// RHatU / RHatW are r̂ with W_l = 1 and with W_l = downstream sinks: the
	// measured delay of m features is RHatU·DeltaC[m] unweighted and
	// RHatW·DeltaC[m] weighted (see Evaluate), always under the exact
	// capacitance model. Zero for unattributed columns.
	RHatU, RHatW float64

	// DeltaC[m] is the exact added coupling capacitance of m features
	// (farads); nil for unattributed columns. Built instances read it
	// straight from the capacitance table (a view of cap.Table.Deltas, shared
	// with every column of the same spacing and capacity), so it is
	// read-only.
	DeltaC []float64

	// NetLow/NetHigh are the bounding nets (-1 if none) with the upstream
	// resistance of the bounding line at the column's X; used by the
	// per-net delay-cap extension and per-net reporting.
	NetLow, NetHigh int
	RLow, RHigh     float64

	// REffLow/REffHigh are the switch-factor-scaled upstream resistances
	// (sf·R) each bounding line is actually charged per farad of added
	// coupling — the per-side terms of r̂, so per-net attribution and the
	// per-net delay caps agree with Evaluate. Equal to RLow/RHigh when
	// crosstalk-aware costing is off.
	REffLow, REffHigh float64
}

// costAt returns CostExact[m] handling nil (free) columns.
func (cv *ColumnVar) costAt(m int) float64 {
	if cv.CostExact == nil || m <= 0 {
		return 0
	}
	if m >= len(cv.CostExact) {
		m = len(cv.CostExact) - 1
	}
	return cv.CostExact[m]
}

// Instance is the per-tile MDFC problem: place F features into the columns.
type Instance struct {
	I, J    int
	F       int // features to place (already clamped to total capacity)
	Columns []ColumnVar
}

// TotalCapacity sums the columns' capacities.
func (in *Instance) TotalCapacity() int {
	n := 0
	for i := range in.Columns {
		n += in.Columns[i].MaxM
	}
	return n
}

// Assignment is a fill-count vector parallel to Instance.Columns.
type Assignment []int

// Valid checks the assignment against capacities and the fill total.
func (in *Instance) Valid(a Assignment) error {
	if len(a) != len(in.Columns) {
		return fmt.Errorf("core: assignment length %d, want %d", len(a), len(in.Columns))
	}
	total := 0
	for k, m := range a {
		if m < 0 || m > in.Columns[k].MaxM {
			return fmt.Errorf("core: column %d assignment %d outside [0,%d]", k, m, in.Columns[k].MaxM)
		}
		total += m
	}
	if total != in.F {
		return fmt.Errorf("core: assignment places %d features, want %d", total, in.F)
	}
	return nil
}

// Evaluate returns the measured unweighted and weighted delay increases of
// an assignment under the exact capacitance model: Σ r̂·ΔC(m) over the
// columns, in column order. Each product is converted explicitly so the
// compiler cannot fuse it into the sum as an FMA (which Go permits on some
// architectures): every term is rounded exactly as a stored curve entry
// would be. An assignment exceeding a column's capacitance curve indicates a
// capacity-extraction bug and is reported as an error (matching
// accumulatePerNet) rather than silently clamped, which would under-report
// the delay impact.
func (in *Instance) Evaluate(a Assignment) (unweighted, weighted float64, err error) {
	for k, m := range a {
		cv := &in.Columns[k]
		if m <= 0 || cv.DeltaC == nil {
			continue
		}
		if m >= len(cv.DeltaC) {
			return 0, 0, fmt.Errorf("core: column %d assignment %d exceeds measurement curve (max %d)",
				k, m, len(cv.DeltaC)-1)
		}
		unweighted += float64(cv.RHatU * cv.DeltaC[m])
		weighted += float64(cv.RHatW * cv.DeltaC[m])
	}
	return unweighted, weighted, nil
}

// buildInstance assembles the MDFC instance for tile (i, j) into in. cols and
// curves are the tile's exact shares of the Instances slabs, sized by its
// counting pass: one ColumnVar per column with capacity, and MaxM+1
// CostExact entries per attributed one, in column order.
//
// For a column bounded below by line l and above by line l', inserting m
// features adds ΔC(m) of coupling capacitance that loads both lines, each at
// its own upstream resistance at the column's X. The objective coefficient
// is therefore r̂ = Σ_{bounding lines} W_l·sf_l·R_l(x) (Fig 8, line 11),
// with W_l = 1 in the non-weighted variant and sf_l the switch factor
// 1 + activity(opposite line's net) when crosstalk-aware costing is on.
func (e *Engine) buildInstance(in *Instance, i, j, want int, cols []ColumnVar, curves []float64) error {
	tc := &e.Tiles[i][j]
	analyses := e.Analyses
	proc := cap.Default130
	rule := e.Rule
	weighted := e.Cfg.Weighted
	// switchFactor returns the Miller multiplier seen by a victim whose
	// aggressor is the given net (-1 = boundary side, quiet).
	switchFactor := func(aggressorNet int) float64 {
		if e.Cfg.Activity == nil || aggressorNet < 0 || aggressorNet >= len(e.Cfg.Activity) {
			return 1
		}
		return 1 + e.Cfg.Activity[aggressorNet]
	}

	// Consecutive columns mostly repeat a (spacing, capacity) pair, and a
	// table is a pure function of that pair for this engine, so the last one
	// resolved is reused without a cache lookup.
	lastD, lastCap := int64(-1), -1
	var tbl cap.Table
	*in = Instance{I: i, J: j, Columns: cols[:0]}
	for k := range tc.Cols {
		col := &tc.Cols[k]
		if col.Capacity <= 0 {
			continue
		}
		cv := ColumnVar{Col: col, MaxM: int(col.Capacity), NetLow: -1, NetHigh: -1}
		if col.HasLow() || col.HasHigh() {
			d := col.Spacing()
			if d != lastD || cv.MaxM != lastCap {
				switch {
				case e.cache != nil:
					tbl = e.cache.Table(proc, rule.Feature, d, cv.MaxM, e.Cfg.Grounded)
				case e.Cfg.Grounded:
					tbl = proc.BuildGroundedTable(rule.Feature, d, cv.MaxM)
				default:
					tbl = proc.BuildTable(rule.Feature, d, cv.MaxM)
				}
				lastD, lastCap = d, cv.MaxM
			}
			x := e.Grid.SiteCenterX(int(col.Col))
			if tbl.MaxM() < cv.MaxM {
				// Geometry guarantees capacity*pitch <= gap, so a shorter
				// table means the extraction and the capacitance model
				// disagree about this column. Silently clamping here would
				// under-fill the tile and skew every density and delay
				// figure downstream — surface the inconsistency instead.
				return fmt.Errorf(
					"core: tile (%d,%d) column %d at x=%d: capacitance table covers %d features but extraction found capacity %d (spacing %d)",
					i, j, k, x, tbl.MaxM(), cv.MaxM, d)
			}
			aggLow, aggHigh := -1, -1
			if col.HasHigh() {
				aggLow = col.High.Net // the high line is the low line's aggressor
			}
			if col.HasLow() {
				aggHigh = col.Low.Net
			}
			rhatU, rhatW := 0.0, 0.0
			if col.HasLow() {
				r, w := analyses[col.Low.Net].At(col.Low.Seg, x)
				cv.NetLow, cv.RLow = col.Low.Net, r
				sf := switchFactor(aggLow)
				cv.REffLow = r * sf
				rhatU += cv.REffLow
				rhatW += cv.REffLow * float64(w)
			}
			if col.HasHigh() {
				r, w := analyses[col.High.Net].At(col.High.Seg, x)
				cv.NetHigh, cv.RHigh = col.High.Net, r
				sf := switchFactor(aggHigh)
				cv.REffHigh = r * sf
				rhatU += cv.REffHigh
				rhatW += cv.REffHigh * float64(w)
			}
			cv.RHatU, cv.RHatW = rhatU, rhatW
			rhat := rhatU
			if weighted {
				rhat = rhatW
			}
			// Entry 0 of every table is exactly 0 (DeltaExact(0) and the
			// grounded table's untouched first entry), and Delta(m) is
			// Deltas[m] in range, so the view holds the bits a copy would.
			n := cv.MaxM + 1
			cv.DeltaC = tbl.Deltas[:n:n]
			cv.CostExact = curves[:n:n]
			curves = curves[n:]
			for m := 1; m < n; m++ {
				cv.CostExact[m] = rhat * cv.DeltaC[m]
			}
			cv.LinearSlope = rhat * proc.DeltaLinear(1, rule.Feature, d)
		}
		in.Columns = append(in.Columns, cv)
	}
	capTotal := in.TotalCapacity()
	if want > capTotal {
		want = capTotal
	}
	if want < 0 {
		want = 0
	}
	in.F = want
	return nil
}
