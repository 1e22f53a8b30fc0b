package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	captable "pilfill/internal/cap" // not "cap": the tests need the builtin
	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/testcases"
)

// instanceCase is one engine fixture of the instance-layout tests: the
// engine, its fill budget, its density grid (for RunMVDC) and a per-net cap
// as tight as the fixture solves in milliseconds: on T2 it repairs an
// incumbent and branches, tighter caps send T1 and T2 tiles into
// branch-and-bound proofs that take seconds.
type instanceCase struct {
	name   string
	eng    *Engine
	budget density.Budget
	grid   *density.Grid
	netCap float64
}

// instanceCases builds the T1 and T2 table fixtures (W 32, r 4) and a
// jittered chip under the chip jobs' dissection and FFT budget, each with
// cfg's cache and memo settings.
func instanceCases(t *testing.T, cfg Config, names ...string) []instanceCase {
	t.Helper()
	var out []instanceCase
	for _, name := range names {
		var l *layout.Layout
		var dis *layout.Dissection
		var rule layout.FillRule
		var netCap float64
		var err error
		switch name {
		case "T1", "T2":
			spec := testcases.T1()
			if name == "T2" {
				spec = testcases.T2()
			}
			if l, err = testcases.Generate(spec); err != nil {
				t.Fatal(err)
			}
			dis, err = layout.NewDissection(l.Die, testcases.WindowNM(32), 4)
			rule, netCap = spec.Rule, 1e-15
		case "chip":
			spec := testcases.Chip(4, 16)
			l = jitteredChip(t, spec, 1)
			dis, err = layout.NewDissection(l.Die, 12800, 4)
			rule, netCap = spec.Rule, 5e-16 // the chip jobs' cap
		default:
			t.Fatalf("unknown case %q", name)
		}
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Seed = 1
		eng, err := NewEngine(l, dis, rule, c)
		if err != nil {
			t.Fatal(err)
		}
		grid := density.NewGrid(l, dis, eng.Occ, 0)
		var budget density.Budget
		if name == "chip" {
			budget, _, err = density.FFTBudget(grid, density.NewKernel(density.EllipticKernel, 4),
				density.FFTBudgetOptions{TargetMin: 0.3, MaxDensity: 0.5})
		} else {
			budget, _, err = density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: 0.15, MaxDensity: 0.7, Seed: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, instanceCase{name, eng, budget, grid, netCap})
	}
	return out
}

// TestInstancesLeaveTablesUntouched: built columns read ΔC straight from the
// cached capacitance tables, so no method may write through that view. On
// T1, T2 and a jittered chip, with a private cache, every cached table is
// snapshotted after the build, every method runs capped and uncapped, and
// RunMVDC and RunBudgeted run; every table must be bit-identical afterwards.
func TestInstancesLeaveTablesUntouched(t *testing.T) {
	for _, name := range []string{"T1", "T2", "chip"} {
		t.Run(name, func(t *testing.T) {
			c := instanceCases(t, Config{Cache: captable.NewTableCache(), NoSolveMemo: true}, name)[0]
			eng := c.eng
			instances := mustInstances(t, eng, c.budget)
			// Every table the build cached, reached through the columns that
			// asked for it, keyed by its backing array: the live entries and
			// their snapshot.
			type table struct{ live, snap []float64 }
			tables := map[*float64]table{}
			views := 0
			for _, in := range instances {
				for k := range in.Columns {
					cv := &in.Columns[k]
					if cv.DeltaC == nil {
						continue
					}
					tbl := eng.cache.Table(eng.Cfg.Proc, eng.Rule.Feature, cv.Col.Spacing(), cv.Col.Capacity, eng.Cfg.Grounded)
					if &tbl.Deltas[0] != &cv.DeltaC[0] || cap(cv.DeltaC) != cv.MaxM+1 {
						t.Fatalf("tile (%d,%d) column %d: DeltaC is not a capped view of the cached table", in.I, in.J, k)
					}
					tables[&tbl.Deltas[0]] = table{tbl.Deltas, slices.Clone(tbl.Deltas)}
					views++
				}
			}
			if s := eng.CacheStats(); s.Entries != len(tables) || views == 0 {
				t.Fatalf("%d cached tables, %d reached from %d columns", s.Entries, len(tables), views)
			}

			netBudgets := eng.NetBudgets(0.2, 1e-21)
			for _, netCap := range []float64{0, c.netCap} {
				eng.Cfg.NetCap = netCap
				for _, m := range allMethods {
					if _, err := eng.Run(m, instances); err != nil {
						t.Fatalf("%v cap %g: %v", m, netCap, err)
					}
				}
			}
			eng.Cfg.NetCap = 0
			if _, err := eng.RunBudgeted(instances, netBudgets); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RunMVDC(c.grid, 1e-15, 0.2, 0.5); err != nil {
				t.Fatal(err)
			}

			if s := eng.CacheStats(); s.Entries != len(tables) {
				t.Errorf("runs grew the cache from %d to %d tables", len(tables), s.Entries)
			}
			for _, tbl := range tables {
				for m, v := range tbl.snap {
					if math.Float64bits(tbl.live[m]) != math.Float64bits(v) {
						t.Fatalf("table entry %d changed from %g to %g", m, v, tbl.live[m])
					}
				}
			}
		})
	}
}

// oracleColumn is a built column's measurement data the way instances
// stored it before Evaluate read the capacitance table.
type oracleColumn struct {
	dc, u, w       []float64 // ΔC(m) and r̂·ΔC(m) per m, unweighted and weighted
	netLo, netHi   int
	reffLo, reffHi float64 // the per-side terms of r̂
}

// oracleCurves rebuilds a built column's measurement curves: r̂ recomputed
// from the column's bounding lines, a fresh table, and r̂·ΔC(m) stored per
// m. Unattributed columns get nil curves.
func oracleCurves(e *Engine, cv *ColumnVar) oracleColumn {
	col := cv.Col
	o := oracleColumn{netLo: -1, netHi: -1}
	if !col.HasLow && !col.HasHigh {
		return o
	}
	sf := func(aggressor int) float64 {
		if e.Cfg.Activity == nil || aggressor < 0 || aggressor >= len(e.Cfg.Activity) {
			return 1
		}
		return 1 + e.Cfg.Activity[aggressor]
	}
	tbl := e.Cfg.Proc.BuildTable(e.Rule.Feature, col.Spacing(), col.Capacity)
	if e.Cfg.Grounded {
		tbl = e.Cfg.Proc.BuildGroundedTable(e.Rule.Feature, col.Spacing(), col.Capacity)
	}
	rhatU, rhatW := 0.0, 0.0
	if col.HasLow {
		aggressor := -1
		if col.HasHigh {
			aggressor = col.High.Net
		}
		r, w := e.Analyses[col.Low.Net].At(col.Low.Seg, col.X)
		o.netLo, o.reffLo = col.Low.Net, r*sf(aggressor)
		rhatU += o.reffLo
		rhatW += o.reffLo * float64(w)
	}
	if col.HasHigh {
		aggressor := -1
		if col.HasLow {
			aggressor = col.Low.Net
		}
		r, w := e.Analyses[col.High.Net].At(col.High.Seg, col.X)
		o.netHi, o.reffHi = col.High.Net, r*sf(aggressor)
		rhatU += o.reffHi
		rhatW += o.reffHi * float64(w)
	}
	n := col.Capacity + 1
	o.dc, o.u, o.w = make([]float64, n), make([]float64, n), make([]float64, n)
	for m := 1; m < n; m++ {
		d := tbl.Delta(m)
		o.dc[m] = d
		o.u[m] = rhatU * d
		o.w[m] = rhatW * d
	}
	return o
}

// TestEvaluateMatchesStoredCurves: a run's Unweighted, Weighted and PerNet
// equal, bit for bit, the sums over stored per-column curves rebuilt by
// oracleCurves, taken in instance order over each tile's solve — for every
// method on T1, T2 and a jittered chip, weighted and unweighted, and
// capped (unweighted) for the two methods that may under-place.
func TestEvaluateMatchesStoredCurves(t *testing.T) {
	ctx := context.Background()
	type run struct {
		m      Method
		netCap float64
	}
	for _, c := range instanceCases(t, Config{}, "T1", "T2", "chip") {
		eng := c.eng
		for _, weighted := range []bool{false, true} {
			eng.Cfg.Weighted = weighted
			instances := mustInstances(t, eng, c.budget)
			oracle := make([][]oracleColumn, len(instances))
			for i, in := range instances {
				oracle[i] = make([]oracleColumn, len(in.Columns))
				for k := range in.Columns {
					oracle[i][k] = oracleCurves(eng, &in.Columns[k])
				}
			}
			var runs []run
			if !weighted {
				// The weighted objective moves T2's capped ILP-II tiles into
				// branch-and-bound proofs that take seconds.
				runs = append(runs, run{GreedyCapped, c.netCap}, run{ILPII, c.netCap})
			}
			for _, m := range allMethods {
				runs = append(runs, run{m, 0})
			}
			sc := NewSolveScratch()
			for _, r := range runs {
				label := fmt.Sprintf("%s weighted=%v %v cap=%g", c.name, weighted, r.m, r.netCap)
				eng.Cfg.NetCap = r.netCap
				res, err := eng.Run(r.m, instances)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var nc *NetCap
				if r.netCap > 0 {
					nc = &NetCap{MaxAddedDelay: r.netCap}
				}
				var wantU, wantW float64
				wantPerNet := make([]float64, len(eng.L.Nets))
				for i, in := range instances {
					a := make(Assignment, len(in.Columns))
					if _, err := eng.solveTile(ctx, r.m, in, sc, eng.ilpOpts(ctx), nc, a, 0, 0); err != nil {
						t.Fatalf("%s tile (%d,%d): %v", label, in.I, in.J, err)
					}
					u, w := 0.0, 0.0
					for k, m := range a {
						o := &oracle[i][k]
						if m <= 0 || o.dc == nil {
							continue
						}
						u += o.u[m]
						w += o.w[m]
						if o.netLo >= 0 {
							wantPerNet[o.netLo] += o.dc[m] * o.reffLo
						}
						if o.netHi >= 0 {
							wantPerNet[o.netHi] += o.dc[m] * o.reffHi
						}
					}
					wantU += u
					wantW += w
				}
				if math.Float64bits(res.Unweighted) != math.Float64bits(wantU) ||
					math.Float64bits(res.Weighted) != math.Float64bits(wantW) {
					t.Errorf("%s: evaluated (%g, %g), stored curves give (%g, %g)",
						label, res.Unweighted, res.Weighted, wantU, wantW)
				}
				for n := range wantPerNet {
					if math.Float64bits(res.PerNet[n]) != math.Float64bits(wantPerNet[n]) {
						t.Fatalf("%s: PerNet[%d] = %g, stored curves give %g", label, n, res.PerNet[n], wantPerNet[n])
					}
				}
			}
		}
	}
}
