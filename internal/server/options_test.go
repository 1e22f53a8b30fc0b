package server

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestSubmitOptionsReachTheEngine guards the wire → engine boundary: every
// SubmitOptions field, set alone to a valid non-default value, must change
// what a job runs with — Window and R the session's dissection,
// CollectTrace the job's tracer, every other field the core.Config. A knob
// added to SubmitOptions without a mapping in SessionOptions fails here.
func TestSubmitOptionsReachTheEngine(t *testing.T) {
	base, err := SubmitOptions{}.SessionOptions()
	if err != nil {
		t.Fatal(err)
	}
	baseCfg := base.EngineConfig()
	typ := reflect.TypeOf(SubmitOptions{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o SubmitOptions
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(2) // non-default for window (32), r (4) and slackdef (3)
		case reflect.Float64:
			v.SetFloat(0.5)
		default:
			t.Fatalf("field %s: kind %s has no test value", f.Name, v.Kind())
		}
		opts, err := o.SessionOptions()
		if err != nil {
			t.Fatalf("field %s: %v", f.Name, err)
		}
		switch f.Name {
		case "Window":
			if opts.Window == base.Window {
				t.Errorf("Window does not reach pilfill.Options")
			}
		case "R":
			if opts.R == base.R {
				t.Errorf("R does not reach pilfill.Options")
			}
		case "CollectTrace":
			if o.tracer() == nil || (SubmitOptions{}).tracer() != nil {
				t.Errorf("CollectTrace does not decide the tracer")
			}
		default:
			if reflect.DeepEqual(opts.EngineConfig(), baseCfg) {
				t.Errorf("field %s does not reach core.Config", f.Name)
			}
		}
	}
}

// FuzzSubmitRequest feeds arbitrary bodies through the submit path —
// decodeSubmit as handleSubmit calls it, then the production task factory —
// without running any task. Nothing may panic, every request the factory
// accepts must resolve to session options with a slack definition in [1,3]
// and a positive window and r, and an accepted region job carries no
// negative offset, owned-rect corner or budget entry.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		`{"testcase": "T1", "method": "ILP-II", "options": {"window": 32, "r": 4, "seed": 1}, "timeout_ms": 60000}`,
		`{"def": "DESIGN x ;", "method": "greedy", "key": "k", "region": {"id": "r1x1-0-0", "window_nm": 12800, "r": 4,
		  "rule_feature_nm": 150, "rule_gap_nm": 50, "rule_buffer_nm": 150, "i0": 0, "j0": 0, "i1": 1, "j1": 2, "budget": [3, 4]}}`,
		`{"def": "DESIGN x ;", "method": "greedy", "region": {"id": "r1x1-0-0", "window_nm": 12800, "r": 4, "tile_off_i": -1, "col_off": -20,
		  "rule_feature_nm": 150, "rule_gap_nm": 50, "rule_buffer_nm": 150, "i0": 0, "j0": 0, "i1": 1, "j1": 2, "budget": [3, -4]}}`,
		`{"testcase": "T1", "method": "Greedy", "options": {"slackdef": 0}}`,
		`{"testcase": "T1", "method": "Greedy", "options": {"slackdef": 4}}`,
		`{"testcase": "T2", "method": "dp", "options": {"window": -32, "r": -4}}`,
		`{"testcase": "T1", "method": "ILP-II", "options": {"dual_gap_tol": 1e-9}}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		if _, err := defaultTask(req, 1, nil); err != nil {
			return
		}
		opts, err := req.Options.SessionOptions()
		if err != nil {
			t.Fatalf("factory accepted options SessionOptions rejects: %v", err)
		}
		if r := req.Region; r != nil {
			if min(r.TileOffI, r.TileOffJ, r.ColOff, r.RowOff, r.I0, r.J0, slices.Min(r.Budget)) < 0 {
				t.Fatalf("accepted a region with a negative offset, corner or budget entry: %s", strings.TrimSpace(string(body)))
			}
		}
		if opts.Def < 1 || opts.Def > 3 || opts.Window <= 0 || opts.R <= 0 {
			t.Fatalf("accepted %s: def %d window %d r %d", strings.TrimSpace(string(body)), opts.Def, opts.Window, opts.R)
		}
	})
}
