package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestMain lets the test binary serve as the unit and worker children the
// benchmark re-executes.
func TestMain(m *testing.M) {
	switch os.Getenv(roleEnv) {
	case roleUnit:
		exitOn(unitMain())
	case roleWorker:
		exitOn(workerMain())
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests check the code
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestQuickWorkloads runs every workload once untraced and once traced on
// tiny inputs, through the same child processes as a real run (the cluster
// workload with its worker process).
func TestQuickWorkloads(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spec := readBenchmarkFile(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 1, trace: trace, quick: true, exe: exe, workDir: t.TempDir()}
			rec, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rec.Correct {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, rec.Errors)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && (!(got.Value > 0) || math.IsInf(got.Value, 0)) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive finite value", w.Name, m.Name, got.Value)
				}
			}
			checkSameFill(t, rec)
		}
	}
}

// checkSameFill asserts outright what the verifier enforces: on each input,
// every unit — the local reference of a cluster run, timed and traced —
// reports the same fill hash and delay bits.
func checkSameFill(t *testing.T, rec *runRecord) {
	t.Helper()
	first := map[int]*unitRun{}
	kinds := map[string]bool{}
	for _, u := range rec.Units {
		kinds[u.Kind] = true
		f, ok := first[u.Input]
		if !ok {
			first[u.Input] = u
			continue
		}
		if u.FillHash != f.FillHash || u.DelayBits != f.DelayBits {
			t.Errorf("%s input %d: %s unit fill %s delay %s, %s unit fill %s delay %s",
				rec.Workload, u.Input, u.Kind, u.FillHash, u.DelayBits, f.Kind, f.FillHash, f.DelayBits)
		}
	}
	if rec.Trace && !kinds["traced"] {
		t.Errorf("%s: traced run has no traced unit", rec.Workload)
	}
	if rec.Workload == "cluster-jittered" && !kinds["reference"] {
		t.Errorf("%s: no local reference unit", rec.Workload)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs.
	cases := []struct {
		in   []float64
		want quartiles
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, quartiles{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, quartiles{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, quartiles{1, 2, 3}},
		{[]float64{5}, quartiles{5, 5, 5}},
	}
	for _, c := range cases {
		if got := quartilesOf(c.in); got != c.want {
			t.Errorf("quartilesOf(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for p, want := range map[int]float64{10: 1, 50: 5, 90: 9, 100: 10} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p%d) = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{0.5}, 10); got != 0.5 {
		t.Errorf("percentile of one value = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same", base, base, true, "within bound"},
		{"slower", base, scale(base, 1.2), true, "regression"},
		{"faster", base, scale(base, 0.8), true, "improved"},
		{"higher is better", base, scale(base, 0.8), false, "regression"},
		{"noisy", noisy, noisy, true, "unresolved"},
		{"noisy but every run better", noisy, scale(noisy, 0.3), true, "improved"},
	}
	for _, c := range cases {
		if got := compareMetric(c.a, c.b, c.lowerBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
