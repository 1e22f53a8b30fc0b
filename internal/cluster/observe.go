// observe.go is the chip-level observability state: a ChipRun accumulates
// per-region live progress (fed from worker progress snapshots and terminal
// payloads), partial region reports, and — when trace collection is on —
// the coordinator's own span buffer plus every region's shipped worker dump,
// merged into one multi-process Chrome trace.
//
// Trace-context contract: the coordinator mints a chip-level trace ID and
// sends `<trace>/<region>#<attempt>` (hedges append "h", readiness probes
// use "/probe") as X-Request-ID on every outbound call; workers echo it into
// their request logs and bind it to the region job, so one grep follows a
// chip across processes.
//
// Clock-alignment rule: worker span timestamps are aligned onto the
// coordinator's axis by wall-clock epoch difference, then clamped forward so
// no worker span begins before the coordinator submitted the attempt that
// produced it — the submit time is a hard happens-before bound that survives
// clock skew.
package cluster

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pilfill/internal/obs"
	"pilfill/internal/server"
)

// chipRunSeq disambiguates trace IDs minted in the same nanosecond.
var chipRunSeq atomic.Int64

// RegionProgress is one region's slice of a chip progress snapshot.
type RegionProgress struct {
	ID string `json:"id"`
	// State is pending | running | done | cached | failed.
	State string `json:"state"`
	// Worker is the base URL of the worker the latest attempt ran on.
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Hedges   int    `json:"hedges,omitempty"`
	// TilesPlanned estimates the region's tile count from its budget (tiles
	// with budget > 0); TilesTotal is the authoritative count once the worker
	// reports it (tiles without slack columns never become instances).
	TilesPlanned int `json:"tiles_planned"`
	TilesTotal   int `json:"tiles_total,omitempty"`
	TilesDone    int `json:"tiles_done"`
	MemoHits     int `json:"memo_hits,omitempty"`
	// PredictedCost is the region's scatter-planning cost proxy (total fill
	// budget); /statusz plots elapsed time against it to spot stragglers.
	PredictedCost int64      `json:"predicted_cost"`
	StartedAt     *time.Time `json:"started_at,omitempty"`
	ElapsedMS     float64    `json:"elapsed_ms,omitempty"`
	// Report is the region's partial result, available as soon as the region
	// finishes — before the chip-level merge. Fills are omitted (they can be
	// large); counters, hashes and slow tiles ride along.
	Report *server.RegionPayload `json:"report,omitempty"`
}

// ChipProgress is the aggregated live view of one chip run, served at
// GET /v1/chips/{id}/progress and streamed on /events. TilesDone sums the
// per-region monotone counters, so it never decreases and ends exactly at
// the merged report's tile count.
type ChipProgress struct {
	TraceID     string           `json:"trace_id,omitempty"`
	State       string           `json:"state"`
	RegionsDone int              `json:"regions_done"`
	Regions     []RegionProgress `json:"regions"`
	TilesDone   int              `json:"tiles_done"`
	TilesTotal  int              `json:"tiles_total"`
	MemoHits    int              `json:"memo_hits,omitempty"`
}

// regionState is the mutable record behind one RegionProgress entry.
type regionState struct {
	RegionProgress
	started time.Time
	// Worker span dump of the winning attempt, with the submit timestamp
	// that bounds its clock alignment.
	dump          *obs.TraceDump
	dumpWorker    string
	dumpSubmitted time.Time
}

// ChipRun tracks one chip job's distributed execution. Create with
// NewChipRun, hand it to Coordinator.RunChipObserved, and read it from the
// serving side at any time; all methods are safe for concurrent use.
type ChipRun struct {
	// TraceID is the chip-level trace/request ID propagated to workers.
	TraceID string
	// Tracer records the coordinator's own chip/region/attempt spans; nil
	// unless the run collects traces.
	Tracer *obs.Tracer

	collect bool

	mu      sync.Mutex
	state   string
	order   []string // region IDs in region-index (merge) order
	regions map[string]*regionState
}

// NewChipRun builds the tracking state for one chip job. An empty traceID
// mints one; collectTraces enables span recording and worker-dump capture.
func NewChipRun(traceID string, collectTraces bool) *ChipRun {
	if traceID == "" {
		traceID = fmt.Sprintf("chip-%d-%d", time.Now().UnixNano(), chipRunSeq.Add(1))
	}
	r := &ChipRun{
		TraceID: traceID,
		collect: collectTraces,
		state:   "pending",
		regions: make(map[string]*regionState),
	}
	if collectTraces {
		r.Tracer = obs.NewTracer(0)
	}
	return r
}

// init registers the prepared chip's regions in merge order. Called by
// RunChipObserved once the prep exists; idempotent.
func (r *ChipRun) init(prep *Prep) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) > 0 {
		return
	}
	r.state = "running"
	for _, jb := range prep.Jobs {
		id := jb.Region.ID(prep.Plan.GX, prep.Plan.GY)
		st := &regionState{RegionProgress: RegionProgress{ID: id, State: "pending"}}
		for _, b := range jb.Budget {
			if b > 0 {
				st.TilesPlanned++
			}
			st.PredictedCost += int64(b)
		}
		r.order = append(r.order, id)
		r.regions[id] = st
	}
}

func (r *ChipRun) region(id string) *regionState {
	if st := r.regions[id]; st != nil {
		return st
	}
	// Unregistered region (init raced or skipped): track it anyway.
	st := &regionState{RegionProgress: RegionProgress{ID: id, State: "pending"}}
	r.order = append(r.order, id)
	r.regions[id] = st
	return st
}

// regionAttempt marks an attempt launched on worker.
func (r *ChipRun) regionAttempt(id, worker string, hedge bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.region(id)
	if st.State == "pending" {
		st.State = "running"
	}
	if st.started.IsZero() {
		st.started = time.Now()
		t := st.started
		st.StartedAt = &t
	}
	st.Worker = worker
	if hedge {
		st.Hedges++
	} else {
		st.Attempts++
	}
}

// regionProgress folds a worker's live progress snapshot in. Counters only
// move forward: a retried region's fresh attempt restarts from zero on the
// worker, but the chip-level view must stay monotone.
func (r *ChipRun) regionProgress(id string, pp *server.ProgressPayload) {
	if pp == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.region(id)
	if st.State == "done" || st.State == "cached" {
		return
	}
	st.TilesDone = max(st.TilesDone, pp.TilesDone)
	st.TilesTotal = max(st.TilesTotal, pp.TilesTotal)
	st.MemoHits = max(st.MemoHits, pp.MemoHits)
}

// regionDone records a region's terminal payload: the authoritative tile
// count and the partial report (fills stripped — the merge keeps its own
// copy; the progress API only needs the summary).
func (r *ChipRun) regionDone(id string, rp *server.RegionPayload, cached bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.region(id)
	st.State = "done"
	if cached {
		st.State = "cached"
	}
	st.TilesDone = rp.Tiles
	st.TilesTotal = rp.Tiles
	if !st.started.IsZero() {
		st.ElapsedMS = float64(time.Since(st.started)) / 1e6
	}
	trimmed := *rp
	trimmed.Fills = nil
	st.Report = &trimmed
}

// regionFailed marks a region terminally failed.
func (r *ChipRun) regionFailed(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.region(id)
	st.State = "failed"
	if !st.started.IsZero() {
		st.ElapsedMS = float64(time.Since(st.started)) / 1e6
	}
}

// addDump stores the winning attempt's worker span dump. submitted is when
// the coordinator posted that attempt — the clock-alignment bound.
func (r *ChipRun) addDump(id, worker string, submitted time.Time, dump *obs.TraceDump) {
	if dump == nil || !r.collect {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.region(id)
	st.dump, st.dumpWorker, st.dumpSubmitted = dump, worker, submitted
}

// setState moves the chip-level state (pending/preparing/running/done/failed).
func (r *ChipRun) setState(state string) {
	r.mu.Lock()
	r.state = state
	r.mu.Unlock()
}

// CollectsTraces reports whether the run captures span dumps.
func (r *ChipRun) CollectsTraces() bool { return r.collect }

// Progress snapshots the aggregated live view.
func (r *ChipRun) Progress() *ChipProgress {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &ChipProgress{
		TraceID: r.TraceID,
		State:   r.state,
		Regions: make([]RegionProgress, 0, len(r.order)),
	}
	for _, id := range r.order {
		st := r.regions[id]
		rp := st.RegionProgress
		if st.State == "running" && !st.started.IsZero() {
			rp.ElapsedMS = float64(time.Since(st.started)) / 1e6
		}
		out.Regions = append(out.Regions, rp)
		out.TilesDone += rp.TilesDone
		out.MemoHits += rp.MemoHits
		switch rp.State {
		case "done", "cached":
			out.RegionsDone++
			out.TilesTotal += rp.TilesTotal
		default:
			// Best available estimate until the worker reports the true count.
			if rp.TilesTotal > 0 {
				out.TilesTotal += rp.TilesTotal
			} else {
				out.TilesTotal += rp.TilesPlanned
			}
		}
	}
	return out
}

// SlowestTiles merges the per-region slowest-tile tables into one
// cluster-wide list, slowest first, at most k entries.
func (r *ChipRun) SlowestTiles(k int) []server.TileMS {
	r.mu.Lock()
	var all []server.TileMS
	for _, id := range r.order {
		if rep := r.regions[id].Report; rep != nil {
			all = append(all, rep.SlowTiles...)
		}
	}
	r.mu.Unlock()
	// Insertion sort by descending duration; tables are top-8 per region.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].MS > all[j-1].MS; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// WriteMergedTrace renders the coordinator's spans plus every captured
// worker dump as one Chrome trace, one process group per region dump,
// aligned per the clock-alignment rule above.
func (r *ChipRun) WriteMergedTrace(w io.Writer) error {
	if !r.collect {
		return fmt.Errorf("cluster: chip run did not collect traces")
	}
	procs := []obs.ProcessTrace{{Name: "coordinator", Dump: r.Tracer.Dump("coordinator")}}
	r.mu.Lock()
	for _, id := range r.order {
		st := r.regions[id]
		if st.dump == nil {
			continue
		}
		var off time.Duration
		if len(st.dump.Spans) > 0 && !st.dumpSubmitted.IsZero() {
			// Spans are in chronological start order; clamp the earliest one
			// to the submit time of the attempt that produced the dump.
			first := st.dump.EpochUnixNano + int64(st.dump.Spans[0].Start)
			if sub := st.dumpSubmitted.UnixNano(); first < sub {
				off = time.Duration(sub - first)
			}
		}
		procs = append(procs, obs.ProcessTrace{
			Name:   st.dumpWorker + " " + id,
			Dump:   st.dump,
			Offset: off,
		})
	}
	r.mu.Unlock()
	return obs.WriteMergedChromeTrace(w, procs)
}
