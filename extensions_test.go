package pilfill

import (
	"strings"
	"testing"

	"pilfill/internal/testcases"
)

func smallSession(t *testing.T) *Session {
	t.Helper()
	l, err := GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l, Options{
		Window:           32000,
		R:                4,
		Rule:             DefaultRuleT1T2(),
		Seed:             5,
		TargetMinDensity: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunBudgetedFacade(t *testing.T) {
	s := smallSession(t)
	free, err := s.Run(ILPII)
	if err != nil {
		t.Fatal(err)
	}
	// Generous budgets reproduce the unconstrained placement count.
	rep, err := s.RunBudgeted(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Placed != free.Result.Placed {
		t.Errorf("generous budget placed %d, unconstrained %d", rep.Result.Placed, free.Result.Placed)
	}
	// Near-zero budgets choke per-net delays.
	tight, err := s.RunBudgeted(0)
	if err != nil {
		t.Fatal(err)
	}
	for n := range tight.Result.PerNet {
		if tight.Result.PerNet[n] > free.Result.PerNet[n]+1e-25 {
			t.Errorf("net %d: budgeted %g > unconstrained %g",
				n, tight.Result.PerNet[n], free.Result.PerNet[n])
		}
	}
	if _, err := s.RunBudgeted(-1); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestRunMVDCFacade(t *testing.T) {
	s := smallSession(t)
	// Generous per-tile budget: density should essentially reach the target.
	rep, achieved, err := s.RunMVDC(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if achieved < s.Target-1e-6 {
		t.Errorf("generous MVDC achieved %g < target %g", achieved, s.Target)
	}
	if rep.Result.Placed == 0 {
		t.Error("generous MVDC placed nothing")
	}
	// Zero budget: no delay impact at all.
	zero, achievedZero, err := s.RunMVDC(0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Result.Unweighted > 1e-25 {
		t.Errorf("zero-budget MVDC has delay %g", zero.Result.Unweighted)
	}
	if achievedZero > achieved+1e-9 {
		t.Errorf("zero budget achieved more density (%g) than generous (%g)", achievedZero, achieved)
	}
}

func TestSmoothnessFacade(t *testing.T) {
	s := smallSession(t)
	rep, err := s.Run(Greedy)
	if err != nil {
		t.Fatal(err)
	}
	before, after := s.Smoothness(rep)
	if after >= before {
		t.Errorf("smoothness %g -> %g; equalizing fill should smooth the layout", before, after)
	}
}

func TestVerticalLayerFillViaTranspose(t *testing.T) {
	// Fill the vertical layer (index 1) by transposing, filling layer 1
	// (now horizontal), and transposing the fill back.
	l, err := GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	tr := l.Transpose()
	s, err := NewSession(tr, Options{
		Window:           32000,
		R:                4,
		Rule:             DefaultRuleT1T2(),
		Layer:            1, // the branch layer, horizontal after transposing
		Seed:             5,
		TargetMinDensity: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Placed == 0 {
		t.Fatal("no fill placed on the transposed layer")
	}
	back, err := TransposeFill(rep.Result.Fill, l.Die, DefaultRuleT1T2())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Fills) != len(rep.Result.Fill.Fills) {
		t.Fatalf("fill count changed in transposition: %d != %d",
			len(back.Fills), len(rep.Result.Fill.Fills))
	}
	// Every transposed fill must respect the buffer to the original
	// layout's vertical wires.
	rule := DefaultRuleT1T2()
	for _, f := range back.Fills[:min(200, len(back.Fills))] {
		keepout := back.Grid.SiteRect(f.Col, f.Row).Expand(rule.Buffer)
		for _, n := range l.Nets {
			for _, sg := range n.Segments {
				if sg.Layer == 1 && keepout.Overlaps(sg.Rect()) {
					t.Fatalf("fill (%d,%d) violates buffer on the original layer", f.Col, f.Row)
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestEveryMethodIsDRCClean(t *testing.T) {
	s := smallSession(t)
	for _, m := range []Method{Normal, Greedy, ILPI, ILPII, DP, MarginalGreedy} {
		rep, err := s.Run(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if vs := s.Verify(rep); len(vs) != 0 {
			t.Errorf("%v: %d DRC violations, first: %v", m, len(vs), vs[0])
		}
	}
	// MVDC and budgeted placements must be clean too.
	rep, _, err := s.RunMVDC(1e-15)
	if err != nil {
		t.Fatal(err)
	}
	if vs := s.Verify(rep); len(vs) != 0 {
		t.Errorf("MVDC: %d violations, first: %v", len(vs), vs[0])
	}
	repB, err := s.RunBudgeted(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if vs := s.Verify(repB); len(vs) != 0 {
		t.Errorf("budgeted: %d violations, first: %v", len(vs), vs[0])
	}
}

func TestTimingReportAgreesWithEngine(t *testing.T) {
	s := smallSession(t)
	rep, err := s.Run(ILPII)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.TimingReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	// The independent checker merges runs across tile boundaries, so its
	// total is >= the engine's per-tile accounting, and should be close.
	eng := rep.Result.Unweighted
	if tr.TotalAdded < eng*(1-1e-9) {
		t.Errorf("checker total %g below engine %g", tr.TotalAdded, eng)
	}
	if tr.TotalAdded > eng*3 {
		t.Errorf("checker total %g wildly above engine %g", tr.TotalAdded, eng)
	}
	// Per-net agreement in aggregate: sum of nets equals the total.
	sum := 0.0
	for _, n := range tr.Nets {
		sum += n.Added
	}
	if diff := sum - tr.TotalAdded; diff > 1e-25 || diff < -1e-25 {
		t.Errorf("per-net sum %g != total %g", sum, tr.TotalAdded)
	}
}

func TestLoadLEFDEFEndToEnd(t *testing.T) {
	lefSrc := `
LAYER m3
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  WIDTH 0.2 ;
END m3
LAYER m4
  TYPE ROUTING ;
  DIRECTION VERTICAL ;
  WIDTH 0.2 ;
END m4
END LIBRARY
`
	defSrc := `
VERSION 5.6 ;
DESIGN lefdef ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 64000 64000 ) ;
NETS 2 ;
- a
  + SOURCE ( 1000 16000 ) LAYER m3
  + SINK ( 60000 16000 ) LAYER m3
  + ROUTED m3 200 ( 1000 16000 ) ( 60000 16000 )
;
- b
  + SOURCE ( 1000 40000 ) LAYER m3
  + SINK ( 60000 40000 ) LAYER m3
  + ROUTED m3 200 ( 1000 40000 ) ( 60000 40000 )
;
END NETS
END DESIGN
`
	l, err := LoadLEFDEF(strings.NewReader(lefSrc), strings.NewReader(defSrc))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Layers) != 2 || len(l.Nets) != 2 {
		t.Fatalf("layers=%d nets=%d", len(l.Layers), len(l.Nets))
	}
	// The loaded pair must run through the whole pipeline.
	s, err := NewSession(l, Options{
		Window: 32000, R: 4, Rule: DefaultRuleT1T2(), TargetMinDensity: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(ILPII)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Placed == 0 {
		t.Error("no fill placed on LEF/DEF layout")
	}
	if vs := s.Verify(rep); len(vs) != 0 {
		t.Errorf("DRC violations on LEF/DEF flow: %v", vs[0])
	}
}

// The facade exposes only T1/T2, so this test generates the T3 scale case
// from its internal spec, as cmd/layoutgen does.
func TestScaleT3(t *testing.T) {
	if testing.Short() {
		t.Skip("T3 scale test in short mode")
	}
	l, err := testcases.Generate(testcases.T3())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l, Options{
		Window:           51200,
		R:                4,
		Rule:             DefaultRuleT1T2(),
		Seed:             1,
		TargetMinDensity: 0.12,
		Workers:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Placed == 0 {
		t.Fatal("T3 placed nothing")
	}
	if vs := s.Verify(rep); len(vs) != 0 {
		t.Fatalf("T3 DRC: %v", vs[0])
	}
	// The big instance must also be solvable by ILP-II within the node cap.
	rep2, err := s.Run(ILPII)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Result.Unweighted > rep.Result.Unweighted {
		t.Errorf("ILP-II %g worse than Greedy %g on T3", rep2.Result.Unweighted, rep.Result.Unweighted)
	}
}
