// trace.go is the traced unit. It does a unit's work, but instead of calling
// NewSession or PrepareChip/RunChipLocal it calls the public functions they
// compose, in the same order, each inside an obs span the benchmark owns,
// and it reads the counters the program already keeps: Engine.Prep,
// Result.Phases, the memo and cap-table stats, the coordinator's metrics
// and stats, and the workers' /metrics. The fill it writes must be the
// untraced unit's, bit for bit; the parent checks that.
//
// The composition mirrored here is the one at the commit that defined the
// benchmark. A change that recomposes those functions leaves the traced
// numbers describing the old composition until the benchmark is updated in
// a change of its own; the fill and delay checks still hold either way.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"pilfill"
	"pilfill/internal/cap"
	"pilfill/internal/cluster"
	"pilfill/internal/core"
	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
	"pilfill/internal/scanline"
	"pilfill/internal/server"
	"pilfill/internal/shard"
)

// spanCat marks the benchmark's own spans; a cluster unit shares its tracer
// with the coordinator's spans, which are left out of the self-time sums.
const spanCat = "bench"

// sessionMaxDensity is NewSession's default upper window density.
const sessionMaxDensity = 0.7

// spanClock runs steps inside spans and remembers when the unit started.
type spanClock struct {
	tr    *obs.Tracer
	start time.Time
}

func newSpanClock(tr *obs.Tracer) *spanClock { return &spanClock{tr: tr, start: time.Now()} }

func (c *spanClock) span(name string, parent obs.SpanID, fn func() error) error {
	sp := c.tr.Start(spanCat, name, 0, parent)
	err := fn()
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// finish closes a traced unit: the wall time, the per-layer map seeded
// with every span's self time as "<span>_s", and the share of the wall the
// spans cover. Spans named in split have their time attributed by the
// program's own counters instead (see addEngineLayers and addRunLayers).
func (c *spanClock) finish(res *unitResult, layers map[string]float64, split ...string) {
	wall := time.Since(c.start)
	res.WallS = wall.Seconds()
	covered := 0.0
	for name, self := range selfTimes(c.tr.Snapshot()) {
		covered += self
		if !slices.Contains(split, name) {
			layers[name+"_s"] += self
		}
	}
	res.Coverage = covered / res.WallS
	res.Layers = layers
}

// selfTimes sums each benchmark span name's self time in seconds: its
// duration minus the part its child spans cover (children of one span run
// one after another, so their durations add up to that part).
func selfTimes(recs []obs.SpanRec) map[string]float64 {
	children := map[obs.SpanID]time.Duration{}
	for _, r := range recs {
		if r.Cat == spanCat && !r.Instant && r.Parent != 0 {
			children[r.Parent] += r.Dur
		}
	}
	out := map[string]float64{}
	for _, r := range recs {
		if r.Cat == spanCat && !r.Instant {
			out[r.Name] += (r.Dur - children[r.ID]).Seconds()
		}
	}
	return out
}

// addEngineLayers splits NewEngine's time with Engine.Prep: RC analysis,
// slack-column extraction, and the rest — validation, site grid and
// occupancy — to the layout layer.
func addEngineLayers(m map[string]float64, p core.PrepStats) {
	m["rc.analyze_s"] += p.Analyze.Seconds()
	m["scanline.extract_s"] += p.Extract.Seconds()
	m["layout.occupancy_s"] += (p.Total - p.Analyze - p.Extract).Seconds()
}

// addRunLayers adds one engine run's phases and work counters.
func addRunLayers(m map[string]float64, res *core.Result) {
	m["core.solve_s"] += res.Phases.Solve.Seconds()
	m["core.evaluate_s"] += res.Phases.Evaluate.Seconds()
	m["core.place_s"] += res.Phases.Place.Seconds()
	m["core.instances"] += float64(res.Tiles)
	m["core.memo_hits"] += float64(res.MemoHits)
	m["core.memo_misses"] += float64(res.MemoMisses)
	m["ilp.nodes"] += float64(res.ILPNodes)
	m["lp.pivots"] += float64(res.LPPivots)
}

func addCacheLayers(m map[string]float64, cs cap.CacheStats) {
	m["cap.table_hits"] += float64(cs.Hits)
	m["cap.table_misses"] += float64(cs.Misses)
}

func addOutputSize(m map[string]float64, path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["def.out_mb"] = float64(st.Size()) / 1e6
	return nil
}

// traceSession mirrors pilfill.NewSession, Session.Run and SaveDEF.
func traceSession(ctx context.Context, spec *unitSpec) (*unitResult, error) {
	c := newSpanClock(obs.NewTracer(0))
	o := sessionOptions()
	var (
		l      *layout.Layout
		dis    *layout.Dissection
		eng    *core.Engine
		prep   core.PrepStats
		grid   *density.Grid
		target float64
		budget density.Budget
		inst   []*core.Instance
		res    *core.Result
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"def.parse", func() (err error) { l, err = loadDEF(spec.In); return err }},
		{"layout.occupancy", func() (err error) { dis, err = layout.NewDissection(l.Die, o.Window, o.R); return err }},
		{"core.engine", func() (err error) {
			// NewSession's engine config for the CLI options.
			eng, err = core.NewEngine(l, dis, o.Rule, core.Config{Layer: o.Layer, Def: scanline.DefIII, Seed: o.Seed})
			if err == nil {
				prep = eng.Prep
			}
			return err
		}},
		{"density.budget", func() error { grid = density.NewGrid(l, dis, eng.Occ, o.Layer); return nil }},
		{"density.probe", func() (err error) { target, err = density.MaxMinDensity(grid, sessionMaxDensity, o.Seed); return err }},
		{"density.budget", func() (err error) {
			budget, _, err = density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: target, MaxDensity: sessionMaxDensity, Seed: o.Seed})
			grid.Stats(nil)
			return err
		}},
		{"core.build", func() (err error) { inst, err = eng.Instances(budget); return err }},
		{"core.run", func() (err error) { res, err = eng.RunContext(ctx, core.ILPII, inst); return err }},
		{"density.budget", func() error { grid.StatsWithAreas(res.Fill.TileFillAreas(eng.Dis)); return nil }},
		{"def.write", func() error {
			return writeFile(spec.Out, func(w io.Writer) error { return pilfill.SaveDEF(w, l, res.Fill) })
		}},
	}
	for _, st := range steps {
		if err := c.span(st.name, 0, st.fn); err != nil {
			return nil, err
		}
	}
	out := newResult(0, res.Tiles, res.Unweighted, fillSites(res.Fill))
	layers := map[string]float64{}
	addEngineLayers(layers, prep)
	addRunLayers(layers, res)
	addCacheLayers(layers, eng.CacheStats())
	c.finish(out, layers, "core.engine", "core.run")
	layers["density.budget_s"] += layers["density.probe_s"]
	if err := addOutputSize(layers, spec.Out); err != nil {
		return nil, err
	}
	return out, writeTrace(spec.TraceOut, c.tr.WriteChromeTrace)
}

func writeTrace(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	return writeFile(path, write)
}

// traceChip mirrors cluster.PrepareChip, then either RunChipLocal (no env)
// or Coordinator.RunChipObserved with worker span collection, then the
// DEF write.
func traceChip(ctx context.Context, spec *unitSpec, env *clusterEnv) (*unitResult, error) {
	var run *cluster.ChipRun
	tr := obs.NewTracer(0)
	if env != nil {
		// The coordinator's tracer carries the benchmark's spans too, so
		// the merged trace shows them next to the chip/region spans.
		run = cluster.NewChipRun("", true)
		tr = run.Tracer
	}
	c := newSpanClock(tr)
	job := chipJob("", spec.GX)
	job.CollectTrace = env != nil
	var before []map[string]float64
	if env != nil {
		var err error
		if before, err = env.scrapeAll(ctx); err != nil {
			return nil, err
		}
		c.start = time.Now()
	}

	var (
		l        *layout.Layout
		dis      *layout.Dissection
		occ      *layout.Occupancy
		budget   density.Budget
		achieved float64
		plan     *shard.Plan
		jobs     []*shard.Job
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"def.parse", func() error {
			data, err := os.ReadFile(spec.In)
			if err != nil {
				return err
			}
			l, err = pilfill.LoadDEF(strings.NewReader(string(data)))
			return err
		}},
		{"layout.occupancy", func() error {
			var err error
			if dis, err = layout.NewDissection(l.Die, job.WindowNM, job.R); err != nil {
				return err
			}
			grid, err := layout.NewSiteGrid(l.Die, chipRule)
			if err != nil {
				return err
			}
			occ = layout.NewOccupancy(l, grid, job.Layer)
			return nil
		}},
		{"density.budget", func() error {
			kind, err := cluster.ParseKernel(job.Kernel)
			if err != nil {
				return err
			}
			budget, achieved, err = density.FFTBudget(density.NewGrid(l, dis, occ, job.Layer), density.NewKernel(kind, job.R),
				density.FFTBudgetOptions{TargetMin: job.TargetMin, MaxDensity: job.MaxDensity})
			return err
		}},
		{"shard.plan", func() (err error) {
			if plan, err = shard.NewPlan(l, dis, chipRule, job.Layer, job.GX, job.GY); err != nil {
				return err
			}
			jobs, err = plan.Jobs(budget)
			return err
		}},
	}
	for _, st := range steps {
		if err := c.span(st.name, 0, st.fn); err != nil {
			return nil, err
		}
	}
	names := make([]string, len(l.Nets))
	for i, n := range l.Nets {
		names[i] = n.Name
	}
	prep := &cluster.Prep{
		Job: job, Layout: l, Dis: dis, Rule: chipRule, Plan: plan, Jobs: jobs,
		Budget: budget, Achieved: achieved, NetNames: names,
	}

	layers := map[string]float64{}
	var rep *cluster.MergedReport
	if env != nil {
		err := c.span("cluster.run", 0, func() (err error) { rep, err = env.coord.RunChipObserved(ctx, prep, run); return err })
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		if rep, err = traceRunChipLocal(ctx, c, prep, layers); err != nil {
			return nil, err
		}
	}
	if err := c.span("def.write", 0, func() error { return writeChipDEF(spec.Out, prep, rep) }); err != nil {
		return nil, err
	}
	out := newResult(0, rep.Tiles, rep.Unweighted, rep.Fills)
	c.finish(out, layers, "core.engine", "core.run", "cluster.region")
	if err := addOutputSize(layers, spec.Out); err != nil {
		return nil, err
	}
	if env == nil {
		return out, writeTrace(spec.TraceOut, c.tr.WriteChromeTrace)
	}
	var trace bytes.Buffer
	if err := run.WriteMergedTrace(&trace); err != nil {
		return nil, err
	}
	layers["core.instances"] = float64(rep.Tiles)
	if err := env.clusterLayers(ctx, layers, before, trace.Bytes()); err != nil {
		return nil, err
	}
	return out, writeTrace(spec.TraceOut, func(w io.Writer) error { _, err := w.Write(trace.Bytes()); return err })
}

// traceRunChipLocal mirrors cluster.RunChipLocal: one whole-chip engine,
// one masked-budget build and solve per region in region order, each
// region's result converted to its wire payload, then MergeRegions.
func traceRunChipLocal(ctx context.Context, c *spanClock, prep *cluster.Prep, layers map[string]float64) (*cluster.MergedReport, error) {
	m, ok := server.ParseMethod(prep.Job.Method)
	if !ok {
		return nil, fmt.Errorf("unknown method %q", prep.Job.Method)
	}
	o := prep.Job.Options
	// cluster's engineConfig for these options.
	cfg := core.Config{Layer: prep.Job.Layer, Def: scanline.DefIII, Seed: o.Seed, NetCap: o.NetCapPS * 1e-12, Workers: max(1, o.Workers)}
	var eng *core.Engine
	err := c.span("core.engine", 0, func() (err error) { eng, err = core.NewEngine(prep.Layout, prep.Dis, prep.Rule, cfg); return err })
	if err != nil {
		return nil, err
	}
	addEngineLayers(layers, eng.Prep)
	payloads := make([]*server.RegionPayload, len(prep.Plan.Regions))
	for n, reg := range prep.Plan.Regions {
		rs := c.tr.Start(spanCat, "cluster.region", 0, 0)
		var (
			inst []*core.Instance
			res  *core.Result
		)
		err := c.span("core.build", rs.ID(), func() (err error) {
			inst, err = eng.Instances(shard.MaskedBudget(prep.Budget, reg.Owned))
			return err
		})
		if err == nil {
			err = c.span("core.run", rs.ID(), func() (err error) { res, err = eng.RunContext(ctx, m, inst); return err })
		}
		if err == nil {
			err = c.span("cluster.payload", rs.ID(), func() error {
				payloads[n] = regionPayload(reg.ID(prep.Plan.GX, prep.Plan.GY), prep.Layout, res)
				return nil
			})
		}
		rs.End()
		if err != nil {
			return nil, err
		}
		addRunLayers(layers, res)
	}
	var rep *cluster.MergedReport
	err = c.span("cluster.merge", 0, func() (err error) { rep, err = cluster.MergeRegions(prep.NetNames, payloads); return err })
	if err != nil {
		return nil, err
	}
	addCacheLayers(layers, eng.CacheStats())
	return rep, nil
}

// regionPayload is the in-process region result as the wire payload
// RunChipLocal builds for MergeRegions (fills already in chip coordinates).
func regionPayload(id string, l *layout.Layout, res *core.Result) *server.RegionPayload {
	rp := &server.RegionPayload{
		ID: id, Tiles: res.Tiles, Requested: res.Requested, Placed: res.Placed,
		ILPNodes: res.ILPNodes, LPPivots: res.LPPivots,
		Repaired: res.IncumbentsRepaired, Dropped: res.IncumbentsDropped,
		Unweighted: res.Unweighted, Weighted: res.Weighted,
		Fills: fillSites(res.Fill),
	}
	fh := server.NewFillHasher()
	for _, f := range rp.Fills {
		fh.Add(f[0], f[1])
	}
	rp.FillHash = fh.Sum()
	for n, v := range res.PerNet {
		if v != 0 {
			if rp.PerNet == nil {
				rp.PerNet = make(map[string]float64)
			}
			rp.PerNet[l.Nets[n].Name] = v
		}
	}
	return rp
}

// scrapeAll reads every worker's /metrics as series -> value, with a
// "phase" label folded into the key as "<series>/<phase>".
func (e *clusterEnv) scrapeAll(ctx context.Context) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(e.urls))
	for i, u := range e.urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := e.scrapeClient().Do(req)
		if err != nil {
			return nil, err
		}
		fams, err := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", u, err)
		}
		out[i] = seriesValues(fams)
	}
	return out, nil
}

func seriesValues(fams []*obs.ExpFamily) map[string]float64 {
	m := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_bucket") {
				continue
			}
			key := s.Name
			if p, ok := s.Labels["phase"]; ok {
				key += "/" + p
			}
			m[key] = s.Value
		}
	}
	return m
}

// clusterLayers fills a cluster unit's worker-side layers — the work the
// coordinator's spans cannot see — from the workers' /metrics deltas and
// their span dumps in the merged trace, plus the coordinator's own
// counters.
func (e *clusterEnv) clusterLayers(ctx context.Context, m map[string]float64, before []map[string]float64, trace []byte) error {
	after, err := e.scrapeAll(ctx)
	if err != nil {
		return err
	}
	delta := func(series string) float64 {
		sum := 0.0
		for i := range after {
			sum += after[i][series] - before[i][series]
		}
		return sum
	}
	spans, regionMax, err := workerSpanTimes(trace)
	if err != nil {
		return err
	}
	preprocess := delta("pilfilld_phase_seconds_sum/preprocess")
	m["rc.analyze_s"] = spans["analyze"]
	m["scanline.extract_s"] = spans["extract"]
	m["core.build_s"] = spans["build"]
	m["layout.occupancy_s"] += preprocess - spans["analyze"] - spans["extract"] - spans["build"]
	m["core.solve_s"] = delta("pilfilld_phase_seconds_sum/solve")
	m["core.evaluate_s"] = delta("pilfilld_phase_seconds_sum/evaluate")
	m["core.place_s"] = delta("pilfilld_phase_seconds_sum/place")
	m["core.memo_hits"] = delta("pilfilld_solve_memo_hits_total")
	m["core.memo_misses"] = delta("pilfilld_solve_memo_misses_total")
	m["cap.table_hits"] = delta("pilfilld_captable_cache_hits_total")
	m["cap.table_misses"] = delta("pilfilld_captable_cache_misses_total")
	m["ilp.nodes"] = delta("pilfilld_ilp_nodes_total")
	m["lp.pivots"] = delta("pilfilld_lp_pivots_total")
	m["server.preprocess_s"] = preprocess

	busy := preprocess + m["core.solve_s"] + m["core.evaluate_s"] + m["core.place_s"]
	m["cluster.worker_busy_frac"] = busy / (float64(len(e.urls)) * m["cluster.run_s"])
	m["cluster.region_s_max"] = regionMax

	var reg bytes.Buffer
	if err := e.reg.Write(&reg); err != nil {
		return err
	}
	fams, err := obs.ParseExposition(&reg)
	if err != nil {
		return err
	}
	m["cluster.merge_s"] = seriesValues(fams)["pilfill_coord_merge_seconds_sum"]
	st := e.coord.Stats()
	m["cluster.attempts"] = st.Attempts
	m["cluster.retries"] = st.Retries
	m["cluster.hedges"] = st.Hedges
	m["cluster.http_requests"] = float64(e.counter.requests.Load())
	m["cluster.http_mb"] = float64(e.counter.bytes.Load()) / 1e6
	return nil
}

// workerSpanTimes sums the worker processes' span durations by name and
// finds the longest coordinator "region" span, both in seconds, from a
// merged Chrome trace (the coordinator is process 1).
func workerSpanTimes(trace []byte) (map[string]float64, float64, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		return nil, 0, fmt.Errorf("merged trace: %w", err)
	}
	sums := map[string]float64{}
	regionMax := 0.0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		secs := ev.Dur / 1e6
		switch {
		case ev.PID != 1:
			sums[ev.Name] += secs
		case ev.Name == "region":
			regionMax = max(regionMax, secs)
		}
	}
	return sums, regionMax, nil
}
