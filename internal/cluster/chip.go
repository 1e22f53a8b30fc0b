// chip.go defines the chip-level job the coordinator accepts and the shared
// preparation pipeline: layout in, FFT effective-density budget out, sharded
// into self-contained region jobs. RunChipLocal runs those same region jobs
// in process, one at a time, through the worker's own region solve
// (server.SolveRegion) — the single-process reference a clustered run must
// match bit for bit.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pilfill"
	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/server"
	"pilfill/internal/shard"
	"pilfill/internal/testcases"
)

// ChipJob is one whole-chip fill-synthesis request: the layout (inline DEF or
// a generated synthetic chip), the dissection and budgeting parameters, the
// region grid to shard over, and the worker-side solve options.
type ChipJob struct {
	// DEF is an inline layout; when empty, CellsX x CellsY selects a
	// generated testcases chip (12800 x 3200 nm cells).
	DEF    string `json:"def,omitempty"`
	CellsX int    `json:"cells_x,omitempty"`
	CellsY int    `json:"cells_y,omitempty"`

	// WindowNM and R set the fixed r-dissection (default 12800 nm, r = 4).
	WindowNM int64 `json:"window_nm,omitempty"`
	R        int   `json:"r,omitempty"`
	// Layer is the routing layer to fill (default 0).
	Layer int `json:"layer,omitempty"`
	// Fill rule in nanometers; zero values take the chip default (150/50/150).
	RuleFeatureNM int64 `json:"rule_feature_nm,omitempty"`
	RuleGapNM     int64 `json:"rule_gap_nm,omitempty"`
	RuleBufferNM  int64 `json:"rule_buffer_nm,omitempty"`

	// GX, GY set the region grid (default 1x1: a single region job).
	GX int `json:"gx,omitempty"`
	GY int `json:"gy,omitempty"`

	// Kernel names the effective-density kernel: flat, elliptic (default) or
	// gaussian. TargetMin is the minimum effective density the budgeter lifts
	// every window to (default 0.25); MaxDensity the cap (default 0.7).
	Kernel     string  `json:"kernel,omitempty"`
	TargetMin  float64 `json:"target_min,omitempty"`
	MaxDensity float64 `json:"max_density,omitempty"`

	// Method is the placement method (CLI spelling; required).
	Method string `json:"method"`
	// Options are the worker-side solve knobs, forwarded to every region job.
	Options server.SubmitOptions `json:"options"`
	// TimeoutMS bounds each region job's run time on its worker.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// CollectTrace asks every worker to record a span buffer for its region
	// job and ship it back with the report; the coordinator merges the dumps
	// with its own spans into one multi-process Chrome trace. It rides here
	// rather than in Options so the region idempotency key — and therefore
	// WAL/dedupe identity — does not depend on whether tracing is on (a
	// region replayed from a traceless earlier run simply contributes no
	// spans).
	CollectTrace bool `json:"collect_trace,omitempty"`
}

// withDefaults returns a copy with the documented defaults applied.
func (j ChipJob) withDefaults() ChipJob {
	if j.WindowNM == 0 {
		j.WindowNM = 12800
	}
	if j.R == 0 {
		j.R = 4
	}
	if j.RuleFeatureNM == 0 && j.RuleGapNM == 0 && j.RuleBufferNM == 0 {
		j.RuleFeatureNM, j.RuleGapNM, j.RuleBufferNM = 150, 50, 150
	}
	if j.GX == 0 {
		j.GX = 1
	}
	if j.GY == 0 {
		j.GY = 1
	}
	if j.Kernel == "" {
		j.Kernel = "elliptic"
	}
	if j.TargetMin == 0 {
		j.TargetMin = 0.25
	}
	if j.MaxDensity == 0 {
		j.MaxDensity = 0.7
	}
	return j
}

// Validate checks what a chip job can be checked for without loading or
// generating its layout: the method, the layout source, the kernel, the
// dissection, the fill rule, the density targets, the non-negative knobs
// and the worker-side solve options. The submit handler and PrepareChip both
// run it, so a defective job fails before it is queued or budgeted.
func (j ChipJob) Validate() error {
	if _, ok := server.ParseMethod(j.Method); !ok {
		return fmt.Errorf("cluster: unknown method %q", j.Method)
	}
	if j.DEF == "" && (j.CellsX <= 0 || j.CellsY <= 0) {
		return errors.New("cluster: chip job needs an inline def or cells_x/cells_y")
	}
	d := j.withDefaults()
	if _, err := ParseKernel(d.Kernel); err != nil {
		return err
	}
	switch {
	case j.GX < 0 || j.GY < 0 || j.Layer < 0 || j.TimeoutMS < 0:
		return fmt.Errorf("cluster: negative gx %d, gy %d, layer %d or timeout_ms %d", j.GX, j.GY, j.Layer, j.TimeoutMS)
	case d.WindowNM <= 0 || d.R <= 0 || d.WindowNM%int64(d.R) != 0:
		return fmt.Errorf("cluster: window_nm %d is not a positive multiple of r %d", d.WindowNM, d.R)
	case !(d.TargetMin > 0 && d.TargetMin < d.MaxDensity && d.MaxDensity <= 1):
		return fmt.Errorf("cluster: want 0 < target_min %g < max_density %g <= 1", d.TargetMin, d.MaxDensity)
	}
	if err := (layout.FillRule{Feature: d.RuleFeatureNM, Gap: d.RuleGapNM, Buffer: d.RuleBufferNM}).Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if _, err := j.Options.SessionOptions(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// ParseKernel resolves the kernel spelling used by ChipJob and the CLIs.
func ParseKernel(s string) (density.KernelKind, error) {
	switch strings.ToLower(s) {
	case "flat":
		return density.FlatKernel, nil
	case "elliptic":
		return density.EllipticKernel, nil
	case "gaussian":
		return density.GaussianKernel, nil
	}
	return 0, fmt.Errorf("cluster: unknown kernel %q (flat|elliptic|gaussian)", s)
}

// Prep is a prepared chip: everything RunChip and RunChipLocal share. The
// budget is computed once, whole-chip, on the coordinator — regions receive
// their slice of it, so budget math never depends on the region grid. Each
// of Jobs carries its stripe both as DEF text (what RunChip ships to a
// worker) and as the layout it was written from (what RunChipLocal solves).
type Prep struct {
	Job      ChipJob // with defaults applied
	Layout   *layout.Layout
	Dis      *layout.Dissection
	Rule     layout.FillRule
	Plan     *shard.Plan
	Jobs     []*shard.Job
	Budget   density.Budget
	Achieved float64 // FFTBudget's achieved minimum effective density
	NetNames []string
}

// PrepareChip validates a chip job and runs the shared pipeline: load or
// generate the layout, build the occupancy-backed density grid (no engine —
// budgeting needs no RC analysis), run FFTBudget, and shard the budget into
// region jobs.
func PrepareChip(job ChipJob) (*Prep, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	j := job.withDefaults()

	var (
		l    *layout.Layout
		rule = layout.FillRule{Feature: j.RuleFeatureNM, Gap: j.RuleGapNM, Buffer: j.RuleBufferNM}
		err  error
	)
	if j.DEF != "" {
		l, err = pilfill.LoadDEF(strings.NewReader(j.DEF))
		if err != nil {
			return nil, fmt.Errorf("cluster: load chip layout: %w", err)
		}
	} else {
		spec := testcases.Chip(j.CellsX, j.CellsY)
		if job.RuleFeatureNM == 0 && job.RuleGapNM == 0 && job.RuleBufferNM == 0 {
			rule = spec.Rule
		}
		l, err = testcases.GenerateChip(spec)
		if err != nil {
			return nil, fmt.Errorf("cluster: generate chip: %w", err)
		}
	}

	dis, err := layout.NewDissection(l.Die, j.WindowNM, j.R)
	if err != nil {
		return nil, fmt.Errorf("cluster: dissection: %w", err)
	}
	kind, _ := ParseKernel(j.Kernel) // checked by Validate
	if j.Layer < 0 || j.Layer >= len(l.Layers) {
		return nil, fmt.Errorf("cluster: layer %d out of range", j.Layer)
	}

	grid, err := layout.NewSiteGrid(l.Die, rule)
	if err != nil {
		return nil, fmt.Errorf("cluster: site grid: %w", err)
	}
	occ := layout.NewOccupancy(l, grid, j.Layer)
	dgrid := density.NewGrid(l, dis, occ, j.Layer)
	budget, achieved, err := density.FFTBudget(dgrid, density.NewKernel(kind, j.R), density.FFTBudgetOptions{
		TargetMin:  j.TargetMin,
		MaxDensity: j.MaxDensity,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: budget: %w", err)
	}

	plan, err := shard.NewPlan(l, dis, rule, j.Layer, j.GX, j.GY)
	if err != nil {
		return nil, err
	}
	jobs, err := plan.Jobs(budget)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(l.Nets))
	for i, n := range l.Nets {
		names[i] = n.Name
	}
	return &Prep{
		Job: j, Layout: l, Dis: dis, Rule: rule,
		Plan: plan, Jobs: jobs,
		Budget: budget, Achieved: achieved, NetNames: names,
	}, nil
}

// RunChipLocal is the single-process run of a prepared chip: each region
// job, in region-index order, goes through server.SolveRegion — the solve a
// worker runs — on the stripe layout Plan.Jobs cut, with the RegionSpec the
// coordinator would send, and the payloads are gathered through the same
// MergeRegions the coordinator uses. One stripe engine lives at a time, so
// peak memory follows the widest stripe plus the fill output. This is the
// reference a clustered run must be bit-identical to; its fill stream also
// matches a plain whole-chip run whenever the region order coincides with
// the global instance order (gy = 1).
func RunChipLocal(ctx context.Context, prep *Prep) (*MergedReport, error) {
	m, ok := server.ParseMethod(prep.Job.Method)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown method %q", prep.Job.Method)
	}
	opts, err := prep.Job.Options.SessionOptions()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// The worker's regionTask config, minus its progress hook and tracer;
	// the local run keeps at least one solve worker instead of the daemon's
	// CPU-share clamp.
	cfg := opts.EngineConfig()
	cfg.Workers = max(1, cfg.Workers)
	payloads := make([]*server.RegionPayload, len(prep.Jobs))
	for n, jb := range prep.Jobs {
		rep, err := server.SolveRegion(ctx, jb.Layout, regionSpec(jb, &prep.Job), m, cfg, func(string, int) {})
		if err != nil {
			return nil, fmt.Errorf("cluster: region %s: %w", jb.Region.Owned, err)
		}
		payloads[n] = rep.Region
	}
	rep, err := MergeRegions(prep.NetNames, payloads)
	if err != nil {
		return nil, err
	}
	rep.Method = m.String()
	rep.BudgetAchievedMin = prep.Achieved
	return rep, nil
}
