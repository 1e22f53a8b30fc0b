package pilfill

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pilfill/internal/core"
	"pilfill/internal/density"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

func TestSessionOnT1AllPaperMethods(t *testing.T) {
	l, err := GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l, Options{Window: 51200, R: 2, Rule: DefaultRuleT1T2(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Budget.Total() == 0 {
		t.Fatal("empty budget on T1")
	}
	var normal, ilp2 *Report
	for _, m := range []Method{Normal, Greedy, ILPI, ILPII} {
		rep, err := s.Run(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if rep.Result.Placed == 0 {
			t.Fatalf("%v placed nothing", m)
		}
		if rep.MinAfter < rep.MinBefore-1e-12 {
			t.Errorf("%v: fill lowered min density %g -> %g", m, rep.MinBefore, rep.MinAfter)
		}
		switch m {
		case Normal:
			normal = rep
		case ILPII:
			ilp2 = rep
		}
	}
	// The headline claim, on our testcase: ILP-II beats Normal.
	if ilp2.Result.Unweighted >= normal.Result.Unweighted {
		t.Errorf("ILP-II %g >= Normal %g (unweighted)", ilp2.Result.Unweighted, normal.Result.Unweighted)
	}
	if !strings.Contains(ilp2.Summary(), "ILP-II") {
		t.Error("summary should name the method")
	}
}

func TestSessionDensityIdenticalAcrossMethods(t *testing.T) {
	l, err := GenerateT2()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l, Options{Window: 32000, R: 2, Rule: DefaultRuleT1T2(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	repA, err := s.Run(Normal)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := s.Run(ILPII)
	if err != nil {
		t.Fatal(err)
	}
	if repA.MinAfter != repB.MinAfter || repA.MaxAfter != repB.MaxAfter {
		t.Errorf("density differs between methods: [%g,%g] vs [%g,%g]",
			repA.MinAfter, repA.MaxAfter, repB.MinAfter, repB.MaxAfter)
	}
}

// TestSessionProbedBudgetMatchesTwoCalls: a session with a probed target
// budgets in one MaxMinBudget run; its target, budget and placed fill must be
// those of the probe followed by a MonteCarlo run at the probed density, and
// a session given that density explicitly must budget exactly as MonteCarlo.
func TestSessionProbedBudgetMatchesTwoCalls(t *testing.T) {
	for _, gen := range []func() (*layout.Layout, error){GenerateT1, GenerateT2} {
		l, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Window: 51200, R: 4, Rule: DefaultRuleT1T2(), Seed: 5}
		probed, err := NewSession(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		maxD := probed.Opts.MaxDensity
		target, err := density.MaxMinDensity(probed.Grid, maxD, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := density.MonteCarlo(probed.Grid, density.MonteCarloOptions{TargetMin: target, MaxDensity: maxD, Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		opts.TargetMinDensity = target
		explicit, err := NewSession(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Session{"probed": probed, "explicit": explicit} {
			if math.Float64bits(s.Target) != math.Float64bits(target) || !reflect.DeepEqual(s.Budget, want) {
				t.Errorf("%s %s: target %v budget %d, two-call target %v budget %d",
					l.Name, name, s.Target, s.Budget.Total(), target, want.Total())
			}
			if s.BudgetTime <= 0 || s.BudgetTime > s.PrepTime {
				t.Errorf("%s %s: budget time %v outside prep time %v", l.Name, name, s.BudgetTime, s.PrepTime)
			}
		}
		a, err := probed.Run(Greedy)
		if err != nil {
			t.Fatal(err)
		}
		b, err := explicit.Run(Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Result.Fill.Fills, b.Result.Fill.Fills) || a.Result.Unweighted != b.Result.Unweighted {
			t.Errorf("%s: probed and explicit sessions place different fill", l.Name)
		}
	}
}

func TestSaveLoadDEFWithFill(t *testing.T) {
	l, err := GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l, Options{Window: 51200, R: 2, Rule: DefaultRuleT1T2()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Greedy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDEF(&buf, l, rep.Result.Fill); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDEF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != l.Name || len(got.Nets) != len(l.Nets) {
		t.Error("round trip lost nets")
	}
}

func TestSaveGDS(t *testing.T) {
	l, err := GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l, Options{Window: 51200, R: 2, Rule: DefaultRuleT1T2()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Greedy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveGDS(&buf, l, rep.Result.Fill, 100); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty GDS output")
	}
}

func TestBadOptions(t *testing.T) {
	l, err := GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(l, Options{Window: 0, R: 2}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewSession(l, Options{Window: 51200, R: 0}); err == nil {
		t.Error("zero r accepted")
	}
}

// TestEngineConfigCoversEveryField guards the options → engine boundary:
// every Options field except the session's own (dissection, fill rule,
// density targets), set alone to a non-zero value, must change
// EngineConfig's result. A knob added to Options without a mapping fails
// here.
func TestEngineConfigCoversEveryField(t *testing.T) {
	sessionOnly := map[string]bool{
		"Window": true, "R": true, "Rule": true, "TargetMinDensity": true, "MaxDensity": true,
	}
	base := Options{}.EngineConfig()
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if sessionOnly[f.Name] {
			continue
		}
		var o Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(2)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(f.Type, 1, 1))
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		case reflect.Func:
			v.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value { return nil }))
		default:
			t.Fatalf("field %s: kind %s has no test value", f.Name, v.Kind())
		}
		if reflect.DeepEqual(o.EngineConfig(), base) {
			t.Errorf("field %s does not reach core.Config", f.Name)
		}
	}
}

// TestSessionGroundedILPIRejected: a grounded session refuses ILP-I (it has
// no grounded-fill model) and runs ILP-II.
func TestSessionGroundedILPIRejected(t *testing.T) {
	l, err := GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l, Options{Window: 51200, R: 4, Rule: DefaultRuleT1T2(), Seed: 1, Grounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ILPI); !errors.Is(err, core.ErrGroundedILPI) {
		t.Fatalf("grounded ILP-I: %v, want ErrGroundedILPI", err)
	}
	if _, err := s.Run(ILPII); err != nil {
		t.Fatalf("grounded ILP-II: %v", err)
	}
}

// TestZeroSiteDie: a die shorter than one fill feature has no site. The
// engine builds on the empty grid; a session with the probed target fails
// with an error naming the die, the rule and "no fill site", and one with an
// explicit target runs and places nothing.
func TestZeroSiteDie(t *testing.T) {
	l := &layout.Layout{Name: "tiny", Die: geom.Rect{X2: 100, Y2: 100}, Layers: []layout.Layer{{Name: "M1"}}}
	rule := layout.FillRule{Feature: 300, Gap: 100}
	dis, err := layout.NewDissection(l.Die, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(l, dis, rule, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Grid.Cols != 0 || eng.Grid.Rows != 0 {
		t.Fatalf("grid %dx%d, want 0x0", eng.Grid.Cols, eng.Grid.Rows)
	}
	_, err = NewSession(l, Options{Window: 100, R: 1, Rule: rule})
	if err == nil {
		t.Error("probed target on a zero-site die accepted")
	} else if msg := err.Error(); !strings.Contains(msg, "no fill site") ||
		!strings.Contains(msg, l.Die.String()) || !strings.Contains(msg, fmt.Sprintf("%+v", rule)) {
		t.Errorf("zero-site die error %q does not name the die %v, the rule %+v and \"no fill site\"", msg, l.Die, rule)
	}
	s, err := NewSession(l, Options{Window: 100, R: 1, Rule: rule, TargetMinDensity: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{Normal, Greedy, ILPII} {
		rep, err := s.Run(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if n := len(rep.Result.Fill.Fills); n != 0 {
			t.Errorf("%v placed %d features on a zero-site die", m, n)
		}
	}
}
