// Package harness regenerates the paper's evaluation artifacts — Table 1
// (non-weighted PIL-Fill synthesis), Table 2 (weighted), and quantitative
// analogs of Figures 2–6 — on the synthetic T1/T2 testcases. It is shared
// by cmd/benchtables and the repository-level benchmarks.
package harness

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"pilfill/internal/cap"
	"pilfill/internal/core"
	"pilfill/internal/density"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
	"pilfill/internal/rc"
	"pilfill/internal/scanline"
	"pilfill/internal/testcases"
)

// TargetMinDensity is the window density the fill budgeter lifts every
// window to for the table experiments. It plays the role of the foundry's
// minimum-density rule: high enough to require substantial fill, low enough
// to leave the placement freedom the methods compete over.
const TargetMinDensity = 0.15

// MaxDensity is the upper window-density bound U for the budgeter.
const MaxDensity = 0.7

// Cell is one method's entry in a table row.
type Cell struct {
	Tau float64 // measured total delay increase, seconds (the table's τ)
	// CPU is solver-only time (summed per-instance solve durations) — the
	// quantity the paper's CPU columns report — so serial and parallel runs
	// are comparable. Wall is the end-to-end run duration.
	CPU  time.Duration
	Wall time.Duration
	// Nodes and Pivots count branch-and-bound nodes and simplex pivots for
	// ILP-II (zero for the others).
	Nodes  int
	Pivots int
}

// Row is one table row: testcase/W/r and the paper's four methods.
type Row struct {
	Case       string
	W, R       int
	Budget     int // fill features prescribed by the density step
	Placed     int
	Normal     Cell
	ILPI       Cell
	ILPII      Cell
	Greedy     Cell
	PrepTime   time.Duration
	DensityMin float64 // post-fill min window density (identical across methods)
	DensityMax float64
}

// Grid is the full experimental grid of the paper's tables.
var Grid = []struct {
	Case string
	W    int
	R    int
}{
	{"T1", 32, 2}, {"T1", 32, 4}, {"T1", 32, 8},
	{"T1", 20, 2}, {"T1", 20, 4}, {"T1", 20, 8},
	{"T2", 32, 2}, {"T2", 32, 4}, {"T2", 32, 8},
	{"T2", 20, 2}, {"T2", 20, 4}, {"T2", 20, 8},
}

// layoutFor builds (or rebuilds) a testcase layout by name.
func layoutFor(name string) (*layout.Layout, layout.FillRule, error) {
	var spec testcases.Spec
	switch name {
	case "T1":
		spec = testcases.T1()
	case "T2":
		spec = testcases.T2()
	default:
		return nil, layout.FillRule{}, fmt.Errorf("harness: unknown testcase %q", name)
	}
	l, err := testcases.Generate(spec)
	return l, spec.Rule, err
}

// Obs carries the optional observability hooks of a harness run: a span
// tracer (run → tile → solve hierarchy, exportable as a Chrome trace) and a
// structured logger (slow-tile warnings, ILP progress). The zero value is
// fully disabled and free.
type Obs struct {
	Trace    *obs.Tracer
	Logger   *slog.Logger
	SlowTile time.Duration // per-tile solve warn threshold; 0 off
}

// RunRowObs executes one table row: prep the layout at (W, r), budget the
// fill, and run all four methods on the identical budget, with the
// observability hooks in ob (zero: none) threaded into the engine. weighted
// selects the Table 2 objective (and τ column).
func RunRowObs(caseName string, w, r int, weighted bool, ob Obs) (*Row, error) {
	l, rule, err := layoutFor(caseName)
	if err != nil {
		return nil, err
	}
	prepStart := time.Now()
	dis, err := layout.NewDissection(l.Die, testcases.WindowNM(w), r)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(l, dis, rule, core.Config{
		Weighted:     weighted,
		Seed:         1,
		ILPNodeLimit: 20000,
		Trace:        ob.Trace,
		Logger:       ob.Logger,
		SlowTile:     ob.SlowTile,
	})
	if err != nil {
		return nil, err
	}
	grid := density.NewGrid(l, dis, eng.Occ, 0)
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{
		TargetMin:  TargetMinDensity,
		MaxDensity: MaxDensity,
		Seed:       1,
	})
	if err != nil {
		return nil, err
	}
	instances, err := eng.Instances(budget)
	if err != nil {
		return nil, err
	}
	row := &Row{Case: caseName, W: w, R: r, Budget: budget.Total(), PrepTime: time.Since(prepStart)}

	run := func(m core.Method) (Cell, *core.Result, error) {
		res, err := eng.Run(m, instances)
		if err != nil {
			return Cell{}, nil, fmt.Errorf("%s/%d/%d %v: %w", caseName, w, r, m, err)
		}
		tau := res.Unweighted
		if weighted {
			tau = res.Weighted
		}
		return Cell{Tau: tau, CPU: res.CPU, Wall: res.Wall,
			Nodes: res.ILPNodes, Pivots: res.LPPivots}, res, nil
	}
	var res *core.Result
	if row.Normal, res, err = run(core.Normal); err != nil {
		return nil, err
	}
	row.Placed = res.Placed
	if row.ILPI, _, err = run(core.ILPI); err != nil {
		return nil, err
	}
	if row.ILPII, res, err = run(core.ILPII); err != nil {
		return nil, err
	}
	row.DensityMin, row.DensityMax = grid.StatsWithAreas(res.Fill.TileFillAreas(dis))
	if row.Greedy, _, err = run(core.Greedy); err != nil {
		return nil, err
	}
	return row, nil
}

// PrintTable renders rows in the paper's layout. τ is reported in
// picoseconds (the synthetic testcases are far smaller than the industry
// designs, whose τ was nanoseconds) and CPU in milliseconds.
func PrintTable(w io.Writer, title string, rows []*Row) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s %8s | %10s | %10s %8s | %10s %8s | %10s %8s\n",
		"T/W/r", "fill", "Normal τ", "ILP-I τ", "CPU", "ILP-II τ", "CPU", "Greedy τ", "CPU")
	fmt.Fprintf(w, "%s\n", dashes(108))
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d | %10.4f | %10.4f %8.0f | %10.4f %8.0f | %10.4f %8.0f\n",
			fmt.Sprintf("%s/%d/%d", r.Case, r.W, r.R), r.Placed,
			r.Normal.Tau*1e12,
			r.ILPI.Tau*1e12, ms(r.ILPI.CPU),
			r.ILPII.Tau*1e12, ms(r.ILPII.CPU),
			r.Greedy.Tau*1e12, ms(r.Greedy.CPU))
	}
	var nodes, pivots int
	for _, r := range rows {
		nodes += r.ILPII.Nodes
		pivots += r.ILPII.Pivots
	}
	fmt.Fprintf(w, "(τ in ps, CPU in ms solver-only; all methods place identical fill per tile)\n")
	fmt.Fprintf(w, "solver work: ILP-II %d nodes / %d pivots\n", nodes, pivots)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

// Fig2Point is one sample of the capacitance-model comparison (the Figure 2
// analog): m fill features between two lines at spacing d.
type Fig2Point struct {
	D        int64
	M        int
	Exact    float64 // added coupling capacitance, exact model (F)
	Linear   float64 // Eq 6 linearization (F)
	RelError float64
}

// Fig2 sweeps the exact vs linearized capacitance models over line spacings
// and fill counts using the testcases' fill rule.
func Fig2() []Fig2Point {
	proc := cap.Default130
	rule := testcases.T1().Rule
	var out []Fig2Point
	for _, d := range []int64{1000, 2200, 3400, 6600, 13000} {
		tbl := proc.BuildTable(rule.Feature, d, 64)
		for m := 1; m <= tbl.MaxM(); m++ {
			out = append(out, Fig2Point{
				D:        d,
				M:        m,
				Exact:    proc.DeltaExact(m, rule.Feature, d),
				Linear:   proc.DeltaLinear(m, rule.Feature, d),
				RelError: proc.RelLinearError(m, rule.Feature, d),
			})
		}
	}
	return out
}

// PrintFig2 renders the model-comparison series.
func PrintFig2(w io.Writer) {
	fmt.Fprintln(w, "Figure 2 analog: exact (Eq 5) vs linearized (Eq 6) added coupling capacitance")
	fmt.Fprintf(w, "%8s %4s %14s %14s %10s\n", "d (nm)", "m", "exact (aF)", "linear (aF)", "rel err")
	for _, p := range Fig2() {
		fmt.Fprintf(w, "%8d %4d %14.4f %14.4f %9.1f%%\n",
			p.D, p.M, p.Exact*1e18, p.Linear*1e18, p.RelError*100)
	}
}

// Fig3 demonstrates the Elmore additivity property of the segmented RC line
// (Figure 3): for a straight N-stage wire, the delay increment caused by
// adding ΔC at position x equals ΔC times the upstream resistance, growing
// linearly toward the sink.
type Fig3Point struct {
	X         int64
	UpstreamR float64
	DeltaTau  float64 // for a 1 fF insertion
}

// Fig3 samples the additivity curve along a 100 um line.
func Fig3() []Fig3Point {
	proc := cap.Default130
	net := &layout.Net{
		Name:   "chain",
		Source: layout.Pin{},
		Sinks:  []layout.Pin{{P: geom.Point{X: 100000}}},
		Segments: []layout.Segment{{
			A: geom.Point{}, B: geom.Point{X: 100000}, Width: 200,
		}},
	}
	a, err := rc.Analyze(net, proc)
	if err != nil {
		panic("harness: fig3 net invalid: " + err.Error())
	}
	const deltaC = 1e-15
	var out []Fig3Point
	for x := int64(0); x <= 100000; x += 10000 {
		r, _ := a.At(0, x)
		out = append(out, Fig3Point{X: x, UpstreamR: r, DeltaTau: a.DeltaDelay(0, x, deltaC, false)})
	}
	return out
}

// PrintFig3 renders the additivity table.
func PrintFig3(w io.Writer) {
	fmt.Fprintln(w, "Figure 3 analog: Elmore additivity on a 100 um segmented RC line (ΔC = 1 fF)")
	fmt.Fprintf(w, "%10s %14s %14s\n", "x (nm)", "R_up (Ω)", "Δτ (fs)")
	for _, p := range Fig3() {
		fmt.Fprintf(w, "%10d %14.2f %14.4f\n", p.X, p.UpstreamR, p.DeltaTau*1e15)
	}
}

// FigSlackRow summarizes one slack-column definition on a testcase (the
// Figures 4–6 analog): how much slack each definition can use, and how much
// of it carries delay attribution.
type FigSlackRow struct {
	Def   scanline.Def
	Stats scanline.Stats
}

// FigSlack extracts slack columns under all three definitions.
func FigSlack(caseName string, w, r int) ([]FigSlackRow, error) {
	l, rule, err := layoutFor(caseName)
	if err != nil {
		return nil, err
	}
	dis, err := layout.NewDissection(l.Die, testcases.WindowNM(w), r)
	if err != nil {
		return nil, err
	}
	grid, err := layout.NewSiteGrid(l.Die, rule)
	if err != nil {
		return nil, err
	}
	occ := layout.NewOccupancy(l, grid, 0)
	var out []FigSlackRow
	for _, def := range []scanline.Def{scanline.DefI, scanline.DefII, scanline.DefIII} {
		tiles, err := scanline.Extract(l, 0, dis, occ, def)
		if err != nil {
			return nil, err
		}
		out = append(out, FigSlackRow{Def: def, Stats: scanline.Summarize(def, tiles)})
	}
	return out, nil
}

// PrintFigSlack renders the slack-definition comparison.
func PrintFigSlack(w io.Writer, caseName string, wsize, r int) error {
	rows, err := FigSlack(caseName, wsize, r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figures 4-6 analog: slack-column definitions on %s (W=%d, r=%d)\n", caseName, wsize, r)
	fmt.Fprintf(w, "%-16s %10s %12s %12s %12s\n", "definition", "columns", "capacity", "attributed", "pair-bound")
	for _, row := range rows {
		fmt.Fprintf(w, "%-16s %10d %12d %12d %12d\n",
			row.Def, row.Stats.Columns, row.Stats.Capacity, row.Stats.Attributed, row.Stats.PairBound)
	}
	return nil
}
