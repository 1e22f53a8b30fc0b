// Package cap implements the interconnect capacitance models of the PIL-Fill
// paper (Section 3): parallel-plate lateral coupling between active lines,
// the exact combined-block model f(m, d) for m floating fill features
// stacked in a column between two lines (Eq 5), its linearization (Eq 6),
// the series-plate configuration model (Eq 4), and per-(column, spacing)
// lookup tables used by the ILP-II formulation.
//
// Geometry is passed in integer nanometers; all capacitances are returned in
// farads and resistances in ohms, so delay = R·C is in seconds.
package cap

import (
	"fmt"
	"math"
)

// Eps0 is the permittivity of free space in F/m.
const Eps0 = 8.854187817e-12

// metersPerNm converts integer-nanometer geometry to meters.
const metersPerNm = 1e-9

// Process carries the electrical parameters of the metal stack.
type Process struct {
	// EpsR is the relative permittivity of the inter-metal dielectric.
	EpsR float64
	// MetalHeight is the conductor thickness in nm; the lateral plate
	// "overlap area" per unit length is MetalHeight x 1 (paper's a).
	MetalHeight int64
	// SheetRes is the wire sheet resistance in ohms/square.
	SheetRes float64
	// AreaCapPerSqNm is the area (overlap) capacitance to the layers
	// above/below per square nanometer of wire footprint, in F/nm^2. Fill
	// does not change it (paper: overlap and fringing are unaffected), but
	// it loads the baseline Elmore delays.
	AreaCapPerSqNm float64
}

// Default130 is a 2003-era 130 nm-class process: oxide dielectric, 0.35 um
// metal height, copper sheet resistance, and a typical plate capacitance.
var Default130 = Process{
	EpsR:           3.9,
	MetalHeight:    350,
	SheetRes:       0.08,
	AreaCapPerSqNm: 4e-26, // ~40 aF/um^2
}

// latConst returns eps0*epsR*h, the numerator of every lateral plate-cap
// expression, in F (per meter of overlap, times meter of height already
// folded in).
func (p Process) latConst() float64 {
	return Eps0 * p.EpsR * float64(p.MetalHeight) * metersPerNm
}

// PlateCapPerLength returns C_B, the lateral coupling capacitance per meter
// of overlap between two parallel lines at edge-to-edge spacing d nm (Eq 3).
// It panics on non-positive spacing, which indicates a geometry bug upstream.
func (p Process) PlateCapPerLength(d int64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("cap: PlateCapPerLength with spacing %d", d))
	}
	return p.latConst() / (float64(d) * metersPerNm)
}

// CoupleExactPerLength returns f(m, d) of Eq 5: the per-meter coupling
// capacitance between two lines at spacing d nm when m square fill features
// of width w nm are stacked in a column between them. The m features are
// modeled as a single floating block of height m*w, which shortens the
// effective dielectric gap to d - m*w. Requires 0 <= m*w < d.
func (p Process) CoupleExactPerLength(m int, w, d int64) float64 {
	occupied := int64(m) * w
	if m < 0 || occupied >= d {
		panic(fmt.Sprintf("cap: CoupleExactPerLength m=%d w=%d d=%d leaves no gap", m, w, d))
	}
	return p.latConst() / (float64(d-occupied) * metersPerNm)
}

// CoupleLinearPerLength returns the Eq 6 linearization of f(m, d):
// C_B + eps*a*m*w/d^2 per meter of overlap. Valid (accurate) only when
// m*w << d; the ILP-I method uses it regardless, which is exactly the source
// of its accuracy loss in the paper's experiments.
func (p Process) CoupleLinearPerLength(m int, w, d int64) float64 {
	if m < 0 || d <= 0 {
		panic(fmt.Sprintf("cap: CoupleLinearPerLength m=%d d=%d", m, d))
	}
	dm := float64(d) * metersPerNm
	return p.latConst()/dm + p.latConst()*float64(m)*float64(w)*metersPerNm/(dm*dm)
}

// DeltaExact returns the total added coupling capacitance, in farads, caused
// by m fill features in one column of footprint width w nm between two lines
// at spacing d nm: (f(m,d) - C_B) * w (the column loads only its own width
// of the overlap, Eq 7).
func (p Process) DeltaExact(m int, w, d int64) float64 {
	if m == 0 {
		return 0
	}
	perLen := p.CoupleExactPerLength(m, w, d) - p.PlateCapPerLength(d)
	return perLen * float64(w) * metersPerNm
}

// DeltaLinear is DeltaExact's Eq 6 linearization:
// eps*a*m*w/d^2 * w, in farads.
func (p Process) DeltaLinear(m int, w, d int64) float64 {
	if m == 0 {
		return 0
	}
	perLen := p.CoupleLinearPerLength(m, w, d) - p.PlateCapPerLength(d)
	return perLen * float64(w) * metersPerNm
}

// SeriesPerLength models the Eq 4 configuration: the per-meter capacitance
// through a stack of plate capacitors whose dielectric gaps are given in nm
// (line-to-fill, fill-to-fill, ..., fill-to-line). Floating metal blocks
// between the gaps are equipotential, so the gaps combine in series.
func (p Process) SeriesPerLength(gaps []int64) float64 {
	if len(gaps) == 0 {
		panic("cap: SeriesPerLength with no gaps")
	}
	inv := 0.0
	for _, g := range gaps {
		if g <= 0 {
			panic(fmt.Sprintf("cap: SeriesPerLength gap %d", g))
		}
		inv += 1 / p.PlateCapPerLength(g)
	}
	return 1 / inv
}

// WireResistance returns the resistance in ohms of a wire segment of the
// given length and width in nm.
func (p Process) WireResistance(length, width int64) float64 {
	if width <= 0 {
		panic(fmt.Sprintf("cap: WireResistance width %d", width))
	}
	if length < 0 {
		panic(fmt.Sprintf("cap: WireResistance length %d", length))
	}
	return p.SheetRes * float64(length) / float64(width)
}

// ResPerLength returns the wire resistance per nm for the given width.
func (p Process) ResPerLength(width int64) float64 {
	if width <= 0 {
		panic(fmt.Sprintf("cap: ResPerLength width %d", width))
	}
	return p.SheetRes / float64(width)
}

// WireAreaCap returns the overlap (area) capacitance in farads of a wire
// segment of the given length and width in nm.
func (p Process) WireAreaCap(length, width int64) float64 {
	return p.AreaCapPerSqNm * float64(length) * float64(width)
}

// Table is the ILP-II lookup table: the added coupling capacitance of a
// column for every feasible fill count m = 0..MaxM, for a fixed feature
// width and line spacing. Entry m is DeltaExact(m, w, d).
type Table struct {
	W, D   int64
	Deltas []float64 // Deltas[m], m = 0..MaxM
}

// BuildTable precomputes the exact added capacitance for m = 0..maxM fill
// features in a column of width w between lines at spacing d. maxM is
// clamped so that at least one feature-width of dielectric gap remains,
// mirroring the design rule that fill cannot abut both lines.
func (p Process) BuildTable(w, d int64, maxM int) Table {
	if w <= 0 || d <= 0 {
		panic(fmt.Sprintf("cap: BuildTable w=%d d=%d", w, d))
	}
	limit := int((d - 1) / w) // largest m with m*w < d
	if maxM > limit {
		maxM = limit
	}
	if maxM < 0 {
		maxM = 0
	}
	tbl := Table{W: w, D: d, Deltas: make([]float64, maxM+1)}
	for m := 0; m <= maxM; m++ {
		tbl.Deltas[m] = p.DeltaExact(m, w, d)
	}
	return tbl
}

// MaxM returns the largest fill count the table covers.
func (t Table) MaxM() int { return len(t.Deltas) - 1 }

// Delta returns the added capacitance for m features, clamping to the table
// range (a request past the end returns the last, i.e. worst, entry).
func (t Table) Delta(m int) float64 {
	if m <= 0 {
		return 0
	}
	if m >= len(t.Deltas) {
		return t.Deltas[len(t.Deltas)-1]
	}
	return t.Deltas[m]
}

// RelLinearError returns |linear - exact| / exact for m features — the
// model-accuracy metric plotted in the Figure 2 analog.
func (p Process) RelLinearError(m int, w, d int64) float64 {
	exact := p.DeltaExact(m, w, d)
	if exact == 0 {
		return 0
	}
	lin := p.DeltaLinear(m, w, d)
	return math.Abs(lin-exact) / exact
}

// DeltaGrounded models *grounded* (tied-to-ground) fill instead of the
// paper's floating fill: the m-feature block between two lines at spacing d
// becomes a ground plane segment. Each line then sees a plate capacitance to
// ground across its half of the remaining gap, while the direct line-to-line
// coupling C_B disappears (the grounded block shields it). The returned
// value is the net added capacitance *per line* for the column's footprint
// width w:
//
//	ΔC_gnd = ε·a/((d − m·w)/2)·w − ε·a/d·w
//
// Grounded fill shields crosstalk but loads the lines much harder than
// floating fill (the gap per side is half the floating block's total gap and
// the full node capacitance counts, not a series combination) — which is
// exactly why the paper assumes floating fill for delay-limited insertion.
func (p Process) DeltaGrounded(m int, w, d int64) float64 {
	if m == 0 {
		return 0
	}
	occupied := int64(m) * w
	if m < 0 || occupied >= d {
		panic(fmt.Sprintf("cap: DeltaGrounded m=%d w=%d d=%d leaves no gap", m, w, d))
	}
	gapPerSide := float64(d-occupied) / 2 * metersPerNm
	perLen := p.latConst()/gapPerSide - p.PlateCapPerLength(d)
	return perLen * float64(w) * metersPerNm
}

// BuildGroundedTable is BuildTable for grounded fill.
func (p Process) BuildGroundedTable(w, d int64, maxM int) Table {
	if w <= 0 || d <= 0 {
		panic(fmt.Sprintf("cap: BuildGroundedTable w=%d d=%d", w, d))
	}
	limit := int((d - 1) / w)
	if maxM > limit {
		maxM = limit
	}
	if maxM < 0 {
		maxM = 0
	}
	tbl := Table{W: w, D: d, Deltas: make([]float64, maxM+1)}
	for m := 1; m <= maxM; m++ {
		tbl.Deltas[m] = p.DeltaGrounded(m, w, d)
	}
	return tbl
}
