// run.go is the parent side of one run: generate the workload's inputs from
// the seed, run units in fresh child processes (a closed loop: the next unit
// starts when the previous one has exited) until the run's seconds are up,
// check every output, and reduce the units to the run's metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"pilfill"
	"pilfill/internal/def"
	"pilfill/internal/drc"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
	"pilfill/internal/server"
)

// workload is one named set of inputs and the path its units take. Units
// cycle through Pool distinct inputs generated from the run's seed.
type workload struct {
	Name   string
	Path   string
	Family string
	Pool   int
}

var workloads = []workload{
	{"session-t3", pathSession, familyT3, 12},
	{"chip-periodic", pathChip, familyPeriodic, 6},
	{"chip-jittered", pathChip, familyJittered, 4},
	{"cluster-jittered", pathCluster, familyJittered, 4},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run (trace 0); BENCHMARK.json
// lists the same names with their direction and bound. Every time is
// scaled to the reference host speed (see calib.go). Wall and CPU times
// are each input's median over its units, averaged over the inputs; the
// rate is the inputs' mean tiles over that wall. A tail percentile of wall
// time and the unscaled median go to the run record's detail.
var endToEnd = []metricDef{
	{"setup_s", "s"},           // median per unit: exec until ready to ingest (cluster: worker ready)
	{"wall_s", "s"},            // per unit: DEF read until the filled DEF is fsynced
	{"tiles_per_s", "tiles/s"}, // tiles over wall
	{"cpu_s", "s"},             // per unit: user+sys over the unit's processes
	{"peak_rss_mb", "MB"},      // median per unit: peak RSS summed over the unit's processes
}

// perLayer are the metrics of a traced run (trace 1): medians over the
// traced units, times at the reference host speed. Every workload produces
// every one of them; figures only
// some workloads have go to the run record's detail instead.
var perLayer = []metricDef{
	{"def.parse_s", "s"},
	{"def.write_s", "s"},
	{"def.out_mb", "MB"},
	{"layout.occupancy_s", "s"},
	{"rc.analyze_s", "s"},
	{"scanline.extract_s", "s"},
	{"density.budget_s", "s"},
	{"core.build_s", "s"},
	{"core.solve_s", "s"},
	{"core.evaluate_s", "s"},
	{"core.place_s", "s"},
	{"core.memo_hits", "count"},
	{"core.memo_misses", "count"},
	{"cap.table_hits", "count"},
	{"cap.table_misses", "count"},
	{"ilp.nodes", "count"},
	{"lp.pivots", "count"},
}

// minCoverage is the least share of a traced unit's wall its spans' self
// times must account for.
const minCoverage = 0.95

// unitTimeout bounds one child unit.
const unitTimeout = 120 * time.Second

type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	exe      string // the binary units re-execute
	workDir  string // inputs and outputs live here for the run's duration
	traceDir string // when set, each workload's last Chrome trace is kept here
}

func (c *runConfig) sizes() sizes {
	if c.quick {
		return quickSizes
	}
	return fullSizes
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run's outcome: the metrics the run line reports, the
// figures that are not benchmark metrics, and every unit.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Label     string                 `json:"label,omitempty"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Quick     bool                   `json:"quick,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    map[string]float64     `json:"detail,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
	Units     []*unitRun             `json:"-"`
	Host      *hostInfo              `json:"host,omitempty"`
}

// unitRun is one child unit as the parent saw it.
type unitRun struct {
	Input  int     `json:"input"`
	Kind   string  `json:"kind"` // timed, traced, or reference (the local run a cluster must match)
	SetupS float64 `json:"setup_s"`
	CPUS   float64 `json:"cpu_s"`   // user+sys over the unit's processes
	CalibS float64 `json:"calib_s"` // the calibration kernel's mean time just before and after the unit
	unitResult
}

// atRef scales a time the unit measured to the reference host speed.
func (u *unitRun) atRef(t float64) float64 { return t * refCalibS / u.CalibS }

// runUnit starts one child unit and waits for it. Setup time runs from
// just before exec until the child prints "ready".
func runUnit(ctx context.Context, exe string, spec unitSpec) (*unitRun, error) {
	ctx, cancel := context.WithTimeout(ctx, unitTimeout)
	defer cancel()
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), roleEnv+"="+roleUnit, unitEnv+"="+string(js))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	setup := time.Since(start)
	var res unitResult
	if err == nil && line != "ready\n" {
		err = fmt.Errorf("unit printed %q before ready", line)
	}
	if err == nil {
		err = json.NewDecoder(r).Decode(&res)
	}
	io.Copy(io.Discard, r)
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, fmt.Errorf("%s unit on %s: %v: %s", spec.Path, filepath.Base(spec.In), err, strings.TrimSpace(stderr.String()))
	}
	return &unitRun{SetupS: setup.Seconds(), CPUS: cpuSeconds(cmd.ProcessState) + res.WorkerCPUS, unitResult: res}, nil
}

//go:embed expected.json
var expectedJSON []byte

// expectedUnit is one recorded outcome: input family -> seed -> pool input.
type expectedUnit struct {
	Tiles     int    `json:"tiles"`
	FillHash  string `json:"fill_hash"`
	DelayBits string `json:"delay_bits"`
}

func expectations(family string, seed int64) ([]expectedUnit, error) {
	var all map[string]map[string][]expectedUnit
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return all[family][strconv.FormatInt(seed, 10)], nil
}

// verifier checks units' outputs. The first unit on each input gets the
// full check: the written DEF must carry the input layout unchanged and
// exactly the reported fill stream, the fill must pass the DRC, and the
// outcome must equal the recorded one when this seed was recorded. Every
// later unit on that input — timed, traced or clustered — must reproduce
// the first one's tiles, fill hash, delay bits and output bytes.
type verifier struct {
	rule   layout.FillRule
	inputs []string
	expect []expectedUnit
	first  []*unitRun
	sums   [][sha256.Size]byte
}

func newVerifier(rule layout.FillRule, inputs []string, expect []expectedUnit) *verifier {
	return &verifier{
		rule: rule, inputs: inputs, expect: expect,
		first: make([]*unitRun, len(inputs)),
		sums:  make([][sha256.Size]byte, len(inputs)),
	}
}

func (v *verifier) check(k int, u *unitRun, out string) error {
	defer os.Remove(out)
	data, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	first := v.first[k]
	if first != nil {
		if u.Tiles != first.Tiles || u.FillHash != first.FillHash || u.DelayBits != first.DelayBits {
			return fmt.Errorf("input %d: %s unit gave %d tiles, fill %s, delay bits %s; the %s unit gave %d, %s, %s",
				k, u.Kind, u.Tiles, u.FillHash, u.DelayBits, first.Kind, first.Tiles, first.FillHash, first.DelayBits)
		}
		if sum != v.sums[k] {
			return fmt.Errorf("input %d: %s unit wrote a different DEF than the %s unit", k, u.Kind, first.Kind)
		}
		return nil
	}
	if err := checkFillDEF(v.inputs[k], data, v.rule, &u.unitResult); err != nil {
		return fmt.Errorf("input %d: %w", k, err)
	}
	if k < len(v.expect) {
		e := v.expect[k]
		if u.Tiles != e.Tiles || u.FillHash != e.FillHash || u.DelayBits != e.DelayBits {
			return fmt.Errorf("input %d: %d tiles, fill %s, delay bits %s; recorded %d, %s, %s",
				k, u.Tiles, u.FillHash, u.DelayBits, e.Tiles, e.FillHash, e.DelayBits)
		}
	}
	v.first[k], v.sums[k] = u, sum
	return nil
}

// checkFillDEF checks a written DEF against its input and the unit's
// report without the program's own parser: the output must be the input
// file (which the benchmark wrote) followed by a FILLS section, whose
// rectangles must be fill sites hashing to the reported fill hash and must
// pass the fill DRC against the input's wires.
func checkFillDEF(inPath string, out []byte, rule layout.FillRule, res *unitResult) error {
	in, err := os.ReadFile(inPath)
	if err != nil {
		return err
	}
	l, _, err := def.Parse(bytes.NewReader(in))
	if err != nil {
		return err
	}
	body := bytes.TrimSuffix(in, []byte("END DESIGN\n"))
	if !bytes.HasPrefix(out, body) {
		return fmt.Errorf("output DEF does not carry the input layout unchanged")
	}
	rects, err := scanFills(out[len(body):], l.Layers[0].Name)
	if err != nil {
		return err
	}
	if res.Tiles == 0 || len(rects) == 0 || len(rects) != res.FillCount {
		return fmt.Errorf("output holds %d fills over %d tiles, unit reported %d", len(rects), res.Tiles, res.FillCount)
	}
	grid, err := layout.NewSiteGrid(l.Die, rule)
	if err != nil {
		return err
	}
	fh := server.NewFillHasher()
	for _, r := range rects {
		c, _ := grid.ColRange(r.X1, r.X1+1)
		row, _ := grid.RowRange(r.Y1, r.Y1+1)
		fh.Add(c, row)
	}
	if got := fh.Sum(); got != res.FillHash {
		return fmt.Errorf("written fill hashes to %s, unit reported %s", got, res.FillHash)
	}
	viol, err := drc.CheckRects(l, rects, 0, rule, nil, drc.Options{MaxViolations: 1})
	if err != nil {
		return err
	}
	if len(viol) > 0 {
		return fmt.Errorf("fill DRC: %v", viol[0])
	}
	return nil
}

// scanFills reads a DEF FILLS section:
//
//	FILLS <n> ;
//	- LAYER <layer> RECT ( x1 y1 ) ( x2 y2 ) ;
//	END FILLS
//	END DESIGN
func scanFills(text []byte, layer string) ([]geom.Rect, error) {
	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	var n int
	if len(lines) < 3 || lines[len(lines)-2] != "END FILLS" || lines[len(lines)-1] != "END DESIGN" {
		return nil, fmt.Errorf("output DEF does not end with a FILLS section")
	}
	if _, err := fmt.Sscanf(lines[0], "FILLS %d ;", &n); err != nil || n != len(lines)-3 {
		return nil, fmt.Errorf("FILLS header %q does not match %d fill lines", lines[0], len(lines)-3)
	}
	rects := make([]geom.Rect, n)
	for i, ln := range lines[1 : n+1] {
		f := strings.Fields(ln)
		if len(f) != 13 || f[0] != "-" || f[1] != "LAYER" || f[2] != layer || f[3] != "RECT" || f[12] != ";" {
			return nil, fmt.Errorf("malformed fill line %q", ln)
		}
		var v [4]int64
		for j, idx := range [4]int{5, 6, 9, 10} {
			x, err := strconv.ParseInt(f[idx], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("malformed fill line %q", ln)
			}
			v[j] = x
		}
		rects[i] = geom.Rect{X1: v[0], Y1: v[1], X2: v[2], Y2: v[3]}
	}
	return rects, nil
}

// unitRule is the fill rule a path's output must obey.
func unitRule(path string) layout.FillRule {
	if path == pathSession {
		return pilfill.DefaultRuleT1T2()
	}
	return chipRule
}

// traceNames are span names a path's Chrome trace must contain.
func traceNames(path string) []string {
	switch path {
	case pathSession:
		return []string{"def.parse", "core.engine", "density.probe", "core.run", "def.write"}
	case pathChip:
		return []string{"def.parse", "shard.plan", "core.engine", "core.run", "cluster.merge", "def.write"}
	}
	return []string{"def.parse", "cluster.run", "chip", "region", "solve", "def.write"}
}

// runWorkload performs one run.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (*runRecord, error) {
	rec := &runRecord{Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick}
	dir, err := os.MkdirTemp(cfg.workDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sz := cfg.sizes()
	inputs, err := writeInputs(dir, w.Family, sz, cfg.seed, w.Pool)
	if err != nil {
		return nil, err
	}
	var expect []expectedUnit
	if !cfg.quick {
		if expect, err = expectations(w.Family, cfg.seed); err != nil {
			return nil, err
		}
	}
	v := newVerifier(unitRule(w.Path), inputs, expect)
	tracePath := filepath.Join(dir, "trace.json")

	n := 0
	var spent time.Duration // time inside timed and traced units
	cal := newCalibrator()
	unit := func(k int, path, kind string) (*unitRun, error) {
		spec := unitSpec{Path: path, In: inputs[k], Out: filepath.Join(dir, fmt.Sprintf("out-%d.def", n)), GX: sz.gx(w.Family)}
		if kind == "traced" {
			spec.Trace, spec.TraceOut = true, tracePath
		}
		n++
		rec.Attempted++
		before := cal.time()
		start := time.Now()
		u, err := runUnit(ctx, cfg.exe, spec)
		if kind != "reference" {
			spent += time.Since(start)
		}
		if err == nil {
			u.Input, u.Kind = k, kind
			u.CalibS = (before + cal.time()) / 2
			err = v.check(k, u, spec.Out)
		}
		if err == nil && kind == "traced" {
			err = checkTrace(u, tracePath, w.Path)
		}
		if err != nil {
			rec.Failed++
			rec.Errors = append(rec.Errors, err.Error())
			return nil, err
		}
		rec.Units = append(rec.Units, u)
		return u, nil
	}

	// A cluster run first solves each input locally; every clustered unit
	// must then match that reference bit for bit.
	if w.Path == pathCluster {
		for k := range inputs {
			if _, err := unit(k, pathChip, "reference"); err != nil {
				return rec.finish(cfg, v), nil
			}
		}
	}
	// The run's seconds count unit time only, so output checks between
	// units do not shorten the measurement.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for i := 0; i < w.Pool || spent < budget; i++ {
		k := i % w.Pool
		if _, err := unit(k, w.Path, "timed"); err != nil {
			break
		}
		if cfg.trace {
			if _, err := unit(k, w.Path, "traced"); err != nil {
				break
			}
		}
	}
	if cfg.trace && cfg.traceDir != "" && rec.Failed == 0 {
		if err := os.Rename(tracePath, filepath.Join(cfg.traceDir, w.Name+".trace.json")); err != nil {
			return nil, err
		}
	}
	return rec.finish(cfg, v), nil
}

// checkTrace lints a traced unit's Chrome trace and its span coverage.
func checkTrace(u *unitRun, path, unitPath string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if _, err := obs.LintChromeTrace(data, traceNames(unitPath), unitPath == pathCluster); err != nil {
		return fmt.Errorf("input %d: chrome trace: %w", u.Input, err)
	}
	if u.Coverage < minCoverage || u.Coverage > 1 {
		return fmt.Errorf("input %d: span self-times cover %.3f of the traced wall, want [%.2f, 1]", u.Input, u.Coverage, minCoverage)
	}
	return nil
}

// finish reduces the units to the run's metrics.
func (rec *runRecord) finish(cfg runConfig, v *verifier) *runRecord {
	rec.Correct = rec.Failed == 0
	rec.Metrics = map[string]metricValue{}
	rec.Detail = map[string]float64{}
	var timed, traced []*unitRun
	for _, u := range rec.Units {
		switch u.Kind {
		case "timed":
			timed = append(timed, u)
		case "traced":
			traced = append(traced, u)
		}
	}
	if len(timed) == 0 {
		return rec
	}
	pick := func(units []*unitRun, f func(*unitRun) float64) []float64 {
		out := make([]float64, len(units))
		for i, u := range units {
			out[i] = f(u)
		}
		return out
	}
	delay := 0.0
	for _, u := range v.first {
		if u != nil {
			delay += u.delayPS()
		}
	}
	rec.Detail["delay_ps"] = delay
	if !cfg.trace {
		var byInput [][]*unitRun
		for _, u := range timed {
			for len(byInput) <= u.Input {
				byInput = append(byInput, nil)
			}
			byInput[u.Input] = append(byInput[u.Input], u)
		}
		// perInput is each input's median of f, averaged over the inputs, so
		// that every input of the seed's pool weighs the same however many
		// units it got.
		perInput := func(f func(*unitRun) float64) float64 {
			sum, n := 0.0, 0
			for _, us := range byInput {
				if len(us) > 0 {
					sum += median(pick(us, f))
					n++
				}
			}
			return sum / float64(n)
		}
		wall := perInput(func(u *unitRun) float64 { return u.atRef(u.WallS) })
		values := map[string]float64{
			"setup_s":     median(pick(timed, func(u *unitRun) float64 { return u.atRef(u.SetupS) })),
			"wall_s":      wall,
			"tiles_per_s": perInput(func(u *unitRun) float64 { return float64(u.Tiles) }) / wall,
			"cpu_s":       perInput(func(u *unitRun) float64 { return u.atRef(u.CPUS) }),
			"peak_rss_mb": median(pick(timed, func(u *unitRun) float64 { return u.PeakRSSMB })),
		}
		for _, m := range endToEnd {
			rec.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
		rec.Detail["units"] = float64(len(timed))
		// The highest percentile with ten units beyond it.
		if n := len(timed); n > 10 {
			p := 100 * (n - 10) / n
			rec.Detail[fmt.Sprintf("wall_s.p%d", p)] = percentile(pick(timed, func(u *unitRun) float64 { return u.atRef(u.WallS) }), p)
		}
		// The times as the clock read them, and the host speed behind them.
		rec.Detail["wall_s.unscaled_median"] = median(pick(timed, func(u *unitRun) float64 { return u.WallS }))
		rec.Detail["calib_s.median"] = median(pick(timed, func(u *unitRun) float64 { return u.CalibS }))
		return rec
	}
	if len(traced) == 0 {
		return rec
	}
	keys := map[string]bool{}
	for _, u := range traced {
		for name := range u.Layers {
			keys[name] = true
		}
	}
	for name := range keys {
		// Layer times, like the end-to-end ones, are at the reference speed.
		f := func(u *unitRun) float64 { return u.Layers[name] }
		if strings.HasSuffix(name, "_s") {
			f = func(u *unitRun) float64 { return u.atRef(u.Layers[name]) }
		}
		rec.Detail[name] = median(pick(traced, f))
	}
	for _, m := range perLayer {
		rec.Metrics[m.Name] = metricValue{rec.Detail[m.Name], m.Unit}
		delete(rec.Detail, m.Name)
	}
	// Units alternate timed, traced on the same input.
	overhead := make([]float64, 0, len(traced))
	for i, u := range traced {
		if i < len(timed) {
			overhead = append(overhead, u.atRef(u.WallS)/timed[i].atRef(timed[i].WallS)-1)
		}
	}
	rec.Detail["trace.overhead_frac"] = median(overhead)
	rec.Detail["trace.coverage_min"] = 1
	for _, u := range traced {
		rec.Detail["trace.coverage_min"] = min(rec.Detail["trace.coverage_min"], u.Coverage)
	}
	return rec
}

// percentile is the nearest-rank p-th percentile of a non-empty sample:
// always one of the measured values.
func percentile(xs []float64, p int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(1, (len(s)*p+99)/100)-1]
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
