// metrics.go assembles pilfilld's Prometheus exposition on the shared
// obs.Registry: scrape-time gauges (queue depth, jobs by state, cap-table
// cache and solve-memo counters), monotonic counters fed by the job queue's
// OnFinish hook,
// fixed-bucket histograms of solver CPU and wall time — now also broken down
// per method and per pipeline phase — plus build metadata.
package server

import (
	"io"
	"sync"
	"time"

	"pilfill/internal/cap"
	"pilfill/internal/core"
	"pilfill/internal/jobqueue"
	"pilfill/internal/obs"
)

// metrics aggregates pilfilld's instruments. Queue-derived values are
// refreshed into a cached jobqueue.Stats at the top of every scrape, so the
// sample closures registered below never call back into the queue.
type metrics struct {
	reg *obs.Registry

	finished      *obs.CounterVec   // terminal jobs by final state
	ilpNodes      *obs.Counter      // branch-and-bound nodes across finished jobs
	lpPivots      *obs.Counter      // simplex pivots across finished jobs
	solveCPU      *obs.Histogram    // solver-only CPU seconds per finished job
	solveWall     *obs.Histogram    // end-to-end wall seconds per finished job
	methodCPU     *obs.HistogramVec // solver CPU seconds by placement method
	phase         *obs.HistogramVec // seconds by pipeline phase
	progressTiles *obs.Counter      // tile solves completed, counted live

	mu    sync.Mutex
	queue jobqueue.Stats // refreshed by scrape, read by the sample closures
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	reg.GaugeSamples("pilfilld_build_info",
		"Build metadata; the value is always 1.", func() []obs.Sample {
			return []obs.Sample{{Labels: []obs.Label{
				{Name: "version", Value: obs.Version},
				{Name: "go_version", Value: obs.GoVersion()},
			}, Value: 1}}
		})
	start := reg.Gauge("pilfilld_start_time_seconds",
		"Unix time the process started, in seconds.")
	start.Set(float64(time.Now().UnixNano()) / 1e9)

	stats := func() jobqueue.Stats {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.queue
	}
	reg.GaugeSamples("pilfilld_queue_depth", "Jobs waiting to run.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(stats().Depth())}}
		})
	reg.GaugeSamples("pilfilld_queue_capacity", "Configured pending-buffer bound.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(stats().Capacity)}}
		})
	reg.GaugeSamples("pilfilld_queue_workers", "Configured worker count.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(stats().Workers)}}
		})
	reg.GaugeSamples("pilfilld_draining", "1 while the queue is shutting down.",
		func() []obs.Sample {
			v := 0.0
			if stats().Draining {
				v = 1
			}
			return []obs.Sample{{Value: v}}
		})
	reg.GaugeSamples("pilfilld_jobs", "Current jobs by state.",
		func() []obs.Sample {
			st := stats()
			out := make([]obs.Sample, 0, 5)
			for s := jobqueue.Pending; s <= jobqueue.Cancelled; s++ {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "state", Value: s.String()}},
					Value:  float64(st.ByState[s]),
				})
			}
			return out
		})
	reg.CounterSamples("pilfilld_jobs_submitted_total", "Lifetime accepted jobs.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(stats().Submitted)}}
		})
	reg.CounterSamples("pilfilld_jobs_rejected_total",
		"Submissions rejected by backpressure or drain.", func() []obs.Sample {
			return []obs.Sample{{Value: float64(stats().Rejected)}}
		})

	m.finished = reg.CounterVec("pilfilld_jobs_finished_total",
		"Jobs reaching a terminal state.", "state")
	m.ilpNodes = reg.Counter("pilfilld_ilp_nodes_total",
		"Branch-and-bound nodes across finished jobs.")
	m.lpPivots = reg.Counter("pilfilld_lp_pivots_total",
		"Simplex pivots across finished jobs.")
	m.solveCPU = reg.Histogram("pilfilld_solve_cpu_seconds",
		"Solver-only CPU seconds per finished job.", nil)
	m.solveWall = reg.Histogram("pilfilld_solve_wall_seconds",
		"End-to-end wall seconds per finished job.", nil)
	m.methodCPU = reg.HistogramVec("pilfilld_method_solve_seconds",
		"Solver-only CPU seconds per finished job, by placement method.",
		"method", nil)
	m.phase = reg.HistogramVec("pilfilld_phase_seconds",
		"Per-phase seconds per finished job (preprocess/solve/evaluate/place).",
		"phase", nil)
	m.progressTiles = reg.Counter("pilfilld_progress_tiles_total",
		"Tile solves completed, counted as they finish (advances while jobs "+
			"run, unlike the per-job figures observed at completion).")

	reg.CounterSamples("pilfilld_captable_cache_hits_total",
		"Shared cap-table cache hits (process-wide).", func() []obs.Sample {
			return []obs.Sample{{Value: float64(cap.Shared.Stats().Hits)}}
		})
	reg.CounterSamples("pilfilld_captable_cache_misses_total",
		"Shared cap-table cache misses (process-wide).", func() []obs.Sample {
			return []obs.Sample{{Value: float64(cap.Shared.Stats().Misses)}}
		})
	reg.GaugeSamples("pilfilld_captable_cache_entries",
		"Shared cap-table cache entries (process-wide).", func() []obs.Sample {
			return []obs.Sample{{Value: float64(cap.Shared.Stats().Entries)}}
		})

	reg.CounterSamples("pilfilld_solve_memo_hits_total",
		"Shared tile-solve memo hits (process-wide).", func() []obs.Sample {
			return []obs.Sample{{Value: float64(core.SharedSolveMemo.Stats().Hits)}}
		})
	reg.CounterSamples("pilfilld_solve_memo_misses_total",
		"Shared tile-solve memo misses (process-wide).", func() []obs.Sample {
			return []obs.Sample{{Value: float64(core.SharedSolveMemo.Stats().Misses)}}
		})
	reg.CounterSamples("pilfilld_solve_memo_stored_total",
		"Shared tile-solve memo entries stored (process-wide).", func() []obs.Sample {
			return []obs.Sample{{Value: float64(core.SharedSolveMemo.Stats().Stored)}}
		})
	reg.GaugeSamples("pilfilld_solve_memo_entries",
		"Shared tile-solve memo entries (process-wide).", func() []obs.Sample {
			return []obs.Sample{{Value: float64(core.SharedSolveMemo.Stats().Entries)}}
		})
	return m
}

// registerTenants adds the per-tenant admission families, sampled from the
// admission layer at scrape time (tenant cardinality is operator-controlled
// and small).
func (m *metrics) registerTenants(adm *jobqueue.TenantAdmission) {
	samples := func(value func(jobqueue.TenantStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			stats := adm.Stats()
			out := make([]obs.Sample, 0, len(stats))
			for _, st := range stats {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "tenant", Value: st.Tenant}},
					Value:  value(st),
				})
			}
			return out
		}
	}
	m.reg.CounterSamples("pilfilld_tenant_admitted_total",
		"Submissions admitted, by tenant.",
		samples(func(st jobqueue.TenantStats) float64 { return float64(st.Admitted) }))
	m.reg.CounterSamples("pilfilld_tenant_rejected_total",
		"Submissions rejected by rate or queue-share limits, by tenant.",
		samples(func(st jobqueue.TenantStats) float64 { return float64(st.Rejected) }))
	m.reg.GaugeSamples("pilfilld_tenant_active_jobs",
		"Admitted jobs not yet finished, by tenant.",
		samples(func(st jobqueue.TenantStats) float64 { return float64(st.Active) }))
	m.reg.GaugeSamples("pilfilld_tenant_tokens",
		"Current token-bucket level, by tenant.",
		samples(func(st jobqueue.TenantStats) float64 { return st.Tokens }))
}

// jobFinished is wired to jobqueue.Config.OnFinish.
func (m *metrics) jobFinished(snap jobqueue.Snapshot) {
	m.finished.Inc(snap.State.String())
	rep, ok := snap.Result.(*ReportPayload)
	if !ok || snap.State != jobqueue.Done {
		return
	}
	m.ilpNodes.Add(float64(rep.ILPNodes))
	m.lpPivots.Add(float64(rep.LPPivots))
	m.solveCPU.Observe(rep.SolveCPUMS / 1e3)
	m.solveWall.Observe(rep.WallMS / 1e3)
	m.methodCPU.Observe(rep.Method, rep.SolveCPUMS/1e3)
	m.phase.Observe("preprocess", rep.PhasesMS.Preprocess/1e3)
	m.phase.Observe("solve", rep.PhasesMS.Solve/1e3)
	m.phase.Observe("evaluate", rep.PhasesMS.Evaluate/1e3)
	m.phase.Observe("place", rep.PhasesMS.Place/1e3)
}

// write refreshes the queue-derived samples and renders the exposition.
func (m *metrics) write(w io.Writer, stats jobqueue.Stats) error {
	m.mu.Lock()
	m.queue = stats
	m.mu.Unlock()
	return m.reg.Write(w)
}
