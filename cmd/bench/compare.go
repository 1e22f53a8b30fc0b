// compare.go is `bench compare A.json B.json`: it applies BENCHMARK.json's
// end-to-end bounds to two sets of untraced runs, workload by workload.
// Each side gets its median and quartiles (Python's statistics.quantiles,
// exclusive method); runs pair up in file order, so run both sides on the
// same seeds in the same order and alternate which side goes first.
//
// Verdicts, per workload and metric:
//   - unresolved: either side's quartile spread, as a share of its median,
//     exceeds the bound, unless every B run beats every A run;
//   - regression: B's median is worse than A's by more than the bound;
//   - improved: B wins at least nine tenths of the pairs (ties count for
//     neither) and the medians differ by more than A's quartile spread;
//   - within bound: otherwise.
//
// The command fails when any metric regresses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// boundSpec is the part of BENCHMARK.json compare reads.
type boundSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBoundSpec(path string) (*boundSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../../BENCHMARK.json"}
	}
	var err error
	for _, p := range candidates {
		var data []byte
		if data, err = os.ReadFile(p); err == nil {
			var s boundSpec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			return &s, nil
		}
	}
	return nil, err
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("benchmark", "", "BENCHMARK.json to read bounds from (default ./BENCHMARK.json, then ../../BENCHMARK.json)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bench compare [-benchmark BENCHMARK.json] A.json[#label] B.json[#label]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("compare needs two result files")
	}
	spec, err := loadBoundSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := compareRuns(spec, a, b)
	if len(rows) == 0 {
		return fmt.Errorf("no workload has untraced runs on both sides")
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tB wins\tverdict\t")
	regressed := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%+.1f%%\t%.0f%%\t%d/%d\t%s\t\n",
			r.workload, r.metric, r.a.med, r.a.q1, r.a.q3, r.unit, r.b.med, r.b.q1, r.b.q3, r.unit,
			100*r.change, 100*r.bound, r.wins, r.pairs, r.verdict)
		if r.verdict == "regression" {
			regressed++
		}
	}
	tw.Flush()
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}

// loadRuns reads a result file's untraced runs, grouped by workload in file
// order; "path#label" keeps only runs with that label.
func loadRuns(arg string) (map[string][]*runRecord, error) {
	path, label, _ := strings.Cut(arg, "#")
	doc, err := readDoc(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]*runRecord{}
	for _, r := range doc.Runs {
		if !r.Trace && r.Correct && (label == "" || r.Label == label) {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

type quartiles struct{ q1, med, q3 float64 }

// quartilesOf matches Python's statistics.quantiles(xs, n=4), the default
// exclusive method; a single value is its own quartiles.
func quartilesOf(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return quartiles{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return quartiles{q[0], q[1], q[2]}
}

func (q quartiles) spread() float64 { return (q.q3 - q.q1) / q.med }

type comparison struct {
	workload, metric, unit string
	a, b                   quartiles
	change, bound          float64 // (B - A) / A of the medians; the metric's bound
	wins, pairs            int
	verdict                string
}

func compareRuns(spec *boundSpec, a, b map[string][]*runRecord) []comparison {
	var rows []comparison
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := compareMetric(va, vb, m.Better == "lower", m.Bound)
			r.workload, r.metric, r.unit = w.Name, m.Name, m.Unit
			rows = append(rows, r)
		}
	}
	return rows
}

func metricValues(runs []*runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func compareMetric(va, vb []float64, lowerBetter bool, bound float64) comparison {
	r := comparison{a: quartilesOf(va), b: quartilesOf(vb), bound: bound}
	r.change = (r.b.med - r.a.med) / r.a.med
	better := func(x, y float64) bool { return (lowerBetter && x < y) || (!lowerBetter && x > y) }
	worse := r.change
	if !lowerBetter {
		worse = -worse
	}
	r.pairs = min(len(va), len(vb))
	for i := 0; i < r.pairs; i++ {
		if better(vb[i], va[i]) {
			r.wins++
		}
	}
	allBetter := true
	for _, x := range vb {
		for _, y := range va {
			allBetter = allBetter && better(x, y)
		}
	}
	diff := r.b.med - r.a.med
	switch {
	case max(r.a.spread(), r.b.spread()) > bound && !allBetter:
		r.verdict = "unresolved"
	case worse > bound:
		r.verdict = "regression"
	case worse < 0 && 10*r.wins >= 9*r.pairs && max(diff, -diff) > r.a.q3-r.a.q1:
		r.verdict = "improved"
	default:
		r.verdict = "within bound"
	}
	return r
}
