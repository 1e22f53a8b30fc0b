// coordinator.go scatters a prepared chip's region jobs across a static set
// of peer pilfilld workers over the /v1/jobs HTTP API and gathers the region
// payloads back into one bit-identical whole-chip report.
//
// Placement and retry are deterministic where it matters and adaptive where
// it doesn't: each region ranks the workers by rendezvous hash of its
// idempotency key (stable assignment, even spread, no coordination), walks
// the ranking on retry with exponential backoff plus jitter drawn from a
// per-region seeded RNG, and — when HedgeAfter is set — launches a hedged
// duplicate on the next-ranked worker if the primary attempt is slow; the
// first success wins. The idempotency key is the region's canonical content
// hash plus the solve options, so resubmitting after a timeout, a worker
// restart, or a hedge race dedupes server-side instead of re-running work.
//
// With DataDir set, every finished region's payload is appended to a JSONL
// WAL (jobqueue.WAL with "region_done" records). A restarted coordinator
// replays it and re-scatters only the regions that never finished — the
// region key is content-addressed, so replayed payloads are valid for any
// later run of the same chip and options.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/obs"
	"pilfill/internal/server"
	"pilfill/internal/shard"
)

// walRegionDone records a finished region's payload under its idempotency
// key; replay seeds the coordinator's done-region cache.
const walRegionDone = "region_done"

// Config configures a Coordinator. Workers is the only required field.
type Config struct {
	// Workers are the peer pilfilld base URLs (e.g. "http://10.0.0.7:8419").
	Workers []string
	// Client is the HTTP client used for all calls; nil uses a default with
	// no overall timeout (per-attempt contexts bound each call).
	Client *http.Client
	// MaxInFlight bounds concurrently outstanding region jobs across the
	// whole scatter (hedges included). Default 2x the worker count.
	MaxInFlight int
	// AttemptTimeout bounds one submit-and-poll attempt. Default 5m.
	AttemptTimeout time.Duration
	// PollInterval is the job-state polling period. Default 50ms.
	PollInterval time.Duration
	// MaxAttempts caps attempts per region (the hedge of an attempt does not
	// count). Default 3x the worker count, at least 4.
	MaxAttempts int
	// BackoffBase/BackoffMax shape the exponential retry backoff
	// (base*2^n, capped, plus up to 50% jitter). Defaults 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed makes backoff jitter reproducible in tests; 0 is fine in
	// production (jitter is already per-region from the region key).
	JitterSeed int64
	// HedgeAfter launches a duplicate attempt on the next-ranked worker when
	// the primary has not finished after this long. 0 disables hedging.
	HedgeAfter time.Duration
	// Tenant, when set, is sent as X-Tenant on every worker call.
	Tenant string
	// DataDir, when set, holds the region WAL (regions.wal).
	DataDir string
	// Logger receives scatter progress; nil discards.
	Logger *slog.Logger
	// Registry, when set, receives the coordinator metric families.
	Registry *obs.Registry
}

// Coordinator scatters region jobs and gathers their payloads.
type Coordinator struct {
	cfg    Config
	client *http.Client
	log    *slog.Logger
	wal    *jobqueue.WAL

	mu   sync.Mutex
	done map[string]*server.RegionPayload // finished regions by idempotency key

	readyMu    sync.Mutex
	readyCache map[string]readyState

	m *coordMetrics
}

type readyState struct {
	ok      bool
	checked time.Time
}

// readyTTL bounds how long a readiness probe result is trusted.
const readyTTL = time.Second

// New builds a Coordinator, replaying the region WAL when DataDir is set.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * len(cfg.Workers)
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 5 * time.Minute
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = max(4, 3*len(cfg.Workers))
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c := &Coordinator{
		cfg:        cfg,
		client:     cfg.Client,
		log:        cfg.Logger,
		done:       make(map[string]*server.RegionPayload),
		readyCache: make(map[string]readyState),
		m:          newCoordMetrics(cfg.Registry),
	}
	if cfg.DataDir != "" {
		wal, recs, err := jobqueue.OpenWAL(filepath.Join(cfg.DataDir, "regions.wal"))
		if err != nil {
			return nil, err
		}
		c.wal = wal
		for _, rec := range recs {
			if rec.Type != walRegionDone {
				continue
			}
			var rp server.RegionPayload
			if err := json.Unmarshal(rec.Payload, &rp); err != nil {
				c.log.Warn("cluster: skipping corrupt region_done record", "key", rec.Key, "err", err)
				continue
			}
			c.done[rec.Key] = &rp
		}
		if len(c.done) > 0 {
			c.log.Info("cluster: region wal replayed", "finished_regions", len(c.done))
		}
	}
	return c, nil
}

// Close closes the region WAL.
func (c *Coordinator) Close() error { return c.wal.Close() }

// RunChip scatters a prepared chip's region jobs, waits for every region, and
// gathers the payloads in region-index order into one merged report.
func (c *Coordinator) RunChip(ctx context.Context, prep *Prep) (*MergedReport, error) {
	return c.RunChipObserved(ctx, prep, nil)
}

// RunChipObserved is RunChip with an externally owned ChipRun receiving live
// per-region progress, partial reports and (when the run collects traces)
// the coordinator's spans plus every region's worker span dump. A nil run
// builds a throwaway one, so RunChip costs one small allocation extra.
func (c *Coordinator) RunChipObserved(ctx context.Context, prep *Prep, run *ChipRun) (*MergedReport, error) {
	if run == nil {
		run = NewChipRun("", prep.Job.CollectTrace)
	}
	run.init(prep)
	m, ok := server.ParseMethod(prep.Job.Method)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown method %q", prep.Job.Method)
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	chipSpan := run.Tracer.Start("cluster", "chip", 0, 0)
	chipSpan.Arg("regions", int64(len(prep.Jobs)))
	chipID := chipSpan.ID()
	defer chipSpan.End()

	results := make([]*server.RegionPayload, len(prep.Jobs))
	sem := make(chan struct{}, c.cfg.MaxInFlight)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for n, jb := range prep.Jobs {
		key := regionKey(jb, &prep.Job)
		regionID := jb.Region.ID(prep.Plan.GX, prep.Plan.GY)
		if rp := c.finished(key); rp != nil {
			results[n] = rp
			c.m.regions.Inc("cached")
			run.regionDone(regionID, rp, true)
			run.Tracer.Instant("cluster", "region-cached", n+1, chipID, obs.Arg{}, obs.Arg{})
			continue
		}
		wg.Add(1)
		go func(n int, jb *shard.Job, key, regionID string) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-gctx.Done():
				return
			}
			// Each region gets its own coordinator span lane so concurrent
			// regions do not overlap in the rendered trace.
			sp := run.Tracer.Start("cluster", "region", n+1, chipID)
			ro := &regionObs{run: run, id: regionID, lane: n + 1, parent: sp.ID()}
			start := time.Now()
			rp, outcome, err := c.runRegion(gctx, jb, &prep.Job, key, ro)
			if err != nil {
				sp.End()
				errOnce.Do(func() {
					firstErr = fmt.Errorf("cluster: region %s: %w", regionID, err)
					cancel()
				})
				c.m.regions.Inc("failed")
				run.regionFailed(regionID)
				return
			}
			sp.Arg("tiles", int64(rp.Tiles))
			sp.End()
			c.m.regions.Inc("ok")
			secs := time.Since(start).Seconds()
			c.m.regionSeconds.Observe(secs)
			c.m.regionDuration.Observe(outcome, secs)
			results[n] = rp
			run.regionDone(regionID, rp, false)
			c.recordDone(key, rp)
		}(n, jb, key, regionID)
	}
	wg.Wait()
	if firstErr != nil {
		run.setState("failed")
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		run.setState("failed")
		return nil, err
	}

	mergeStart := time.Now()
	msp := run.Tracer.Start("cluster", "merge", 0, chipID)
	rep, err := MergeRegions(prep.NetNames, results)
	msp.End()
	if err != nil {
		run.setState("failed")
		return nil, err
	}
	c.m.mergeSeconds.Observe(time.Since(mergeStart).Seconds())
	rep.Method = m.String()
	rep.BudgetAchievedMin = prep.Achieved
	run.setState("done")
	return rep, nil
}

// finished returns the cached payload for a region key, if any.
func (c *Coordinator) finished(key string) *server.RegionPayload {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done[key]
}

// recordDone caches a finished region and appends it to the WAL.
func (c *Coordinator) recordDone(key string, rp *server.RegionPayload) {
	c.mu.Lock()
	c.done[key] = rp
	c.mu.Unlock()
	payload, err := json.Marshal(rp)
	if err == nil {
		err = c.wal.Append(jobqueue.WALRecord{Type: walRegionDone, Key: key, Payload: payload})
	}
	if err != nil {
		c.log.Warn("cluster: region_done wal append failed", "key", key, "err", err)
	}
}

// regionKey derives a region job's idempotency key: the canonical content
// hash already covers the geometry, budget and offsets, so the key only adds
// the solve method and options (which change the result but not the region).
func regionKey(jb *shard.Job, job *ChipJob) string {
	opts, _ := json.Marshal(job.Options) // struct of scalars; cannot fail
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", jb.Hash, job.Method, opts)
	return fmt.Sprintf("region-%s-%016x", jb.Hash[:16], h.Sum64())
}

// rendezvous ranks workers for a key by highest-random-weight hashing:
// deterministic for a key, evenly spread across keys, and stable when the
// worker set changes (only regions hashed to a removed worker move).
func rendezvous(workers []string, key string) []string {
	type scored struct {
		w     string
		score uint64
	}
	kh := fnv.New64a()
	io.WriteString(kh, key)
	khash := kh.Sum64()
	s := make([]scored, len(workers))
	for i, w := range workers {
		wh := fnv.New64a()
		io.WriteString(wh, w)
		// FNV alone leaves short-suffix differences in the low bits, letting
		// one worker's hash dominate every key; the avalanche finalizer
		// (splitmix64's) restores an even spread.
		s[i] = scored{w, mix64(wh.Sum64() ^ khash)}
	}
	// Insertion sort by descending score (worker counts are small); ties
	// break on the URL so the ranking is a total order.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j].score > s[j-1].score ||
			(s[j].score == s[j-1].score && s[j].w < s[j-1].w)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	out := make([]string, len(s))
	for i, sc := range s {
		out[i] = sc.w
	}
	return out
}

// mix64 is splitmix64's avalanche finalizer: every input bit flips about
// half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// attemptResult is one submit-and-poll attempt's outcome.
type attemptResult struct {
	payload   *server.RegionPayload
	trace     *obs.TraceDump // worker span dump, when the job collected one
	worker    string
	reqID     string    // X-Request-ID the attempt carried
	submitted time.Time // when the attempt was posted (clock-alignment bound)
	hedge     bool
	err       error
}

// regionObs carries one region's observability context down the attempt
// stack: the ChipRun to feed, the region's identity for request IDs, and the
// coordinator span lane/parent for attempt spans.
type regionObs struct {
	run    *ChipRun
	id     string
	lane   int
	parent obs.SpanID
}

// reqID builds the X-Request-ID for one attempt: `<trace>/<region>#<n>`,
// with an "h" suffix on hedged duplicates.
func (ro *regionObs) reqID(attempt int, hedge bool) string {
	id := fmt.Sprintf("%s/%s#%d", ro.run.TraceID, ro.id, attempt)
	if hedge {
		id += "h"
	}
	return id
}

// runRegion drives one region to completion: ranked workers, bounded
// attempts, backoff with per-region deterministic jitter, and an optional
// hedged duplicate per attempt. The outcome string labels the duration
// histogram: "ok" first-attempt wins, "retried" later-attempt wins,
// "hedge-won" hedged-duplicate wins.
func (c *Coordinator) runRegion(ctx context.Context, jb *shard.Job, job *ChipJob, key string, ro *regionObs) (*server.RegionPayload, string, error) {
	req := regionRequest(jb, job, key)
	ranked := rendezvous(c.cfg.Workers, key)
	kh := fnv.New64a()
	io.WriteString(kh, key)
	rng := rand.New(rand.NewSource(c.cfg.JitterSeed ^ int64(kh.Sum64())))

	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.m.retries.Inc()
			if err := sleepCtx(ctx, c.backoff(attempt, rng)); err != nil {
				return nil, "", err
			}
		}
		primary := c.pickReady(ctx, ranked, attempt, ro)
		res := c.attemptWithHedge(ctx, ranked, primary, req, key, attempt, ro)
		if res.err == nil {
			ro.run.addDump(ro.id, res.worker, res.submitted, res.trace)
			outcome := "ok"
			switch {
			case res.hedge:
				c.m.hedgeWins.Inc()
				outcome = "hedge-won"
			case attempt > 0:
				outcome = "retried"
			}
			return res.payload, outcome, nil
		}
		lastErr = res.err
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		c.log.Warn("cluster: region attempt failed", "key", key,
			"attempt", attempt, "worker", res.worker, "req_id", res.reqID,
			"err", res.err)
	}
	return nil, "", fmt.Errorf("%d attempts failed, last: %w", c.cfg.MaxAttempts, lastErr)
}

// pickReady scans the ranking (starting at the attempt's rotation) for a
// worker whose /readyz passes, falling back to the rotation slot itself when
// none probe ready — the attempt is then the truth, not the stale probe.
func (c *Coordinator) pickReady(ctx context.Context, ranked []string, attempt int, ro *regionObs) int {
	probeID := ro.run.TraceID + "/probe"
	for off := 0; off < len(ranked); off++ {
		idx := (attempt + off) % len(ranked)
		if c.workerReady(ctx, ranked[idx], probeID) {
			return idx
		}
		c.m.notReady.Inc()
	}
	return attempt % len(ranked)
}

// attemptWithHedge runs one attempt on the primary worker and, when
// configured and the primary is slow, a hedged duplicate on the next-ranked
// worker. The first success wins; the loser's context is cancelled.
func (c *Coordinator) attemptWithHedge(ctx context.Context, ranked []string, primary int, req *server.SubmitRequest, key string, attempt int, ro *regionObs) attemptResult {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()

	ch := make(chan attemptResult, 2)
	launch := func(idx int, hedge bool) {
		w := ranked[idx]
		reqID := ro.reqID(attempt, hedge)
		c.m.attempts.Inc()
		c.m.inflight.Add(1)
		ro.run.regionAttempt(ro.id, w, hedge)
		go func() {
			defer c.m.inflight.Add(-1)
			name := "attempt"
			if hedge {
				name = "hedge"
			}
			asp := ro.run.Tracer.Start("cluster", name, ro.lane, ro.parent)
			submitted := time.Now()
			rp, tr, err := c.attempt(actx, w, req, reqID, ro)
			asp.End()
			ch <- attemptResult{payload: rp, trace: tr, worker: w,
				reqID: reqID, submitted: submitted, hedge: hedge, err: err}
		}()
	}
	launch(primary, false)
	outstanding := 1

	var hedgeTimer <-chan time.Time
	if c.cfg.HedgeAfter > 0 && len(ranked) > 1 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeTimer = t.C
	}
	var last attemptResult
	for {
		select {
		case res := <-ch:
			if res.err == nil {
				return res
			}
			last = res
			outstanding--
			if outstanding == 0 {
				return last
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			c.m.hedges.Inc()
			c.log.Info("cluster: hedging slow region", "key", key, "primary", ranked[primary])
			launch((primary+1)%len(ranked), true)
			outstanding++
		case <-actx.Done():
			if last.err == nil {
				last.err = actx.Err()
			}
			return last
		}
	}
}

// backoff returns the sleep before retry n: base*2^(n-1) capped at max, plus
// up to 50% jitter from the per-region RNG.
func (c *Coordinator) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := c.cfg.BackoffBase << uint(attempt-1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// sleepCtx sleeps for d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// workerReady probes a worker's /readyz, caching the verdict briefly so a
// wide scatter does not stampede the endpoint. The probe carries reqID as
// X-Request-ID like every other outbound call, so worker request logs tie
// probes to the chip that triggered them.
func (c *Coordinator) workerReady(ctx context.Context, worker, reqID string) bool {
	c.readyMu.Lock()
	st, ok := c.readyCache[worker]
	c.readyMu.Unlock()
	if ok && time.Since(st.checked) < readyTTL {
		return st.ok
	}
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	ready := false
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, worker+"/readyz", nil)
	if err == nil {
		c.setHeaders(req, reqID)
		if resp, err := c.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
		}
	}
	c.readyMu.Lock()
	c.readyCache[worker] = readyState{ok: ready, checked: time.Now()}
	c.readyMu.Unlock()
	return ready
}

// WorkerStatus is one worker's health as seen from the coordinator.
type WorkerStatus struct {
	URL   string `json:"url"`
	Ready bool   `json:"ready"`
}

// WorkerStatuses probes every configured worker's /readyz (through the
// usual short-lived cache) for /statusz.
func (c *Coordinator) WorkerStatuses(ctx context.Context) []WorkerStatus {
	out := make([]WorkerStatus, len(c.cfg.Workers))
	for i, w := range c.cfg.Workers {
		out[i] = WorkerStatus{URL: w, Ready: c.workerReady(ctx, w, "statusz/probe")}
	}
	return out
}

// CoordStats is a point-in-time read of the coordinator's counters for
// /statusz; the Prometheus exposition remains the canonical time series.
type CoordStats struct {
	RegionsOK     float64 `json:"regions_ok"`
	RegionsCached float64 `json:"regions_cached"`
	RegionsFailed float64 `json:"regions_failed"`
	Attempts      float64 `json:"attempts"`
	Retries       float64 `json:"retries"`
	Hedges        float64 `json:"hedges"`
	HedgeWins     float64 `json:"hedge_wins"`
	NotReady      float64 `json:"worker_not_ready"`
	Inflight      int64   `json:"inflight_attempts"`
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() CoordStats {
	return CoordStats{
		RegionsOK:     c.m.regions.Value("ok"),
		RegionsCached: c.m.regions.Value("cached"),
		RegionsFailed: c.m.regions.Value("failed"),
		Attempts:      c.m.attempts.Value(),
		Retries:       c.m.retries.Value(),
		Hedges:        c.m.hedges.Value(),
		HedgeWins:     c.m.hedgeWins.Value(),
		NotReady:      c.m.notReady.Value(),
		Inflight:      c.m.inflight.Load(),
	}
}

// regionRequest builds the /v1/jobs submission for a region job. The chip's
// CollectTrace flag is applied to the request copy of the options only —
// regionKey hashes job.Options, so the idempotency key stays trace-agnostic.
func regionRequest(jb *shard.Job, job *ChipJob, key string) *server.SubmitRequest {
	opts := job.Options
	opts.CollectTrace = job.CollectTrace || opts.CollectTrace
	return &server.SubmitRequest{
		DEF:       jb.DEF,
		Method:    job.Method,
		Options:   opts,
		TimeoutMS: job.TimeoutMS,
		Key:       key,
		Region:    regionSpec(jb, job),
	}
}

// regionSpec is a region job's RegionSpec: the one conversion from a shard
// job to what server.SolveRegion reads, shared by the coordinator's
// requests and RunChipLocal.
func regionSpec(jb *shard.Job, job *ChipJob) *server.RegionSpec {
	o := jb.Region.Owned
	return &server.RegionSpec{
		ID:            jb.Region.ID(job.GX, job.GY),
		WindowNM:      jb.WindowNM,
		R:             jb.R,
		Layer:         job.Layer,
		RuleFeatureNM: job.RuleFeatureNM,
		RuleGapNM:     job.RuleGapNM,
		RuleBufferNM:  job.RuleBufferNM,
		TileOffI:      jb.TileOffI,
		TileOffJ:      jb.TileOffJ,
		ColOff:        jb.ColOff,
		RowOff:        jb.RowOff,
		I0:            o.I0,
		J0:            o.J0,
		I1:            o.I1,
		J1:            o.J1,
		Budget:        jb.Budget,
	}
}

// retryableError marks outcomes the retry loop should absorb.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// attempt submits the region job to one worker and polls it to a terminal
// state, forwarding the worker's live progress snapshots into the ChipRun on
// every poll. The submission is idempotent (the key dedupes), so every
// failure mode — timeout, connection loss, worker restart — is safe to
// retry. The returned dump is the worker's span buffer when the job
// collected one.
func (c *Coordinator) attempt(ctx context.Context, worker string, req *server.SubmitRequest, reqID string, ro *regionObs) (*server.RegionPayload, *obs.TraceDump, error) {
	view, err := c.postJob(ctx, worker, req, reqID)
	if err != nil {
		return nil, nil, err
	}
	if rp, tr, terminal, err := regionOutcome(view); terminal {
		return rp, tr, err // dedupe hit on an already-finished job
	}
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-ticker.C:
		}
		view, err := c.getJob(ctx, worker, view.ID, reqID)
		if err != nil {
			return nil, nil, err
		}
		ro.run.regionProgress(ro.id, view.Progress)
		if rp, tr, terminal, err := regionOutcome(view); terminal {
			return rp, tr, err
		}
	}
}

// regionOutcome interprets a job view: (payload, dump, true, nil) on
// success, (nil, nil, true, err) on a terminal failure, terminal=false while
// running.
func regionOutcome(view *server.JobView) (*server.RegionPayload, *obs.TraceDump, bool, error) {
	switch view.State {
	case "done":
		if view.Report == nil || view.Report.Region == nil {
			return nil, nil, true, fmt.Errorf("job %s finished without a region payload", view.ID)
		}
		return view.Report.Region, view.Report.Trace, true, nil
	case "failed":
		return nil, nil, true, fmt.Errorf("job %s failed: %s", view.ID, view.Error)
	case "cancelled":
		return nil, nil, true, &retryableError{fmt.Errorf("job %s cancelled by worker", view.ID)}
	}
	return nil, nil, false, nil
}

// setHeaders stamps the headers every outbound worker call carries: the
// propagated request ID and, when configured, the tenant.
func (c *Coordinator) setHeaders(hreq *http.Request, reqID string) {
	if reqID != "" {
		hreq.Header.Set("X-Request-ID", reqID)
	}
	if c.cfg.Tenant != "" {
		hreq.Header.Set("X-Tenant", c.cfg.Tenant)
	}
}

// postJob submits the region job. 429/503 and transport errors are
// retryable; anything else non-2xx is a request defect and is not.
func (c *Coordinator) postJob(ctx context.Context, worker string, req *server.SubmitRequest, reqID string) (*server.JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	c.setHeaders(hreq, reqID)
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, &retryableError{fmt.Errorf("submit to %s: %w", worker, err)}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		var view server.JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return nil, &retryableError{fmt.Errorf("decode submit response from %s: %w", worker, err)}
		}
		return &view, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, &retryableError{httpError(worker, resp)}
	default:
		return nil, httpError(worker, resp)
	}
}

// getJob polls one job. A 404 means the worker lost the job (restart without
// a WAL): retryable — resubmitting the same key either dedupes onto the
// replayed job or starts it fresh.
func (c *Coordinator) getJob(ctx context.Context, worker, id, reqID string) (*server.JobView, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	c.setHeaders(hreq, reqID)
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, &retryableError{fmt.Errorf("poll %s: %w", worker, err)}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var view server.JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return nil, &retryableError{fmt.Errorf("decode job view from %s: %w", worker, err)}
		}
		return &view, nil
	case http.StatusNotFound:
		return nil, &retryableError{fmt.Errorf("worker %s lost job %s (restarted?)", worker, id)}
	default:
		return nil, &retryableError{httpError(worker, resp)}
	}
}

// httpError extracts the server's error body into a readable error.
func httpError(worker string, resp *http.Response) error {
	var e server.ErrorResponse
	json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e)
	if e.Error == "" {
		e.Error = resp.Status
	}
	return fmt.Errorf("%s: %d %s", worker, resp.StatusCode, e.Error)
}

// coordMetrics are the coordinator's instrument handles. With a nil
// registry, instruments still exist (on a private registry) so call sites
// stay unconditional.
type coordMetrics struct {
	regions        *obs.CounterVec // regions by outcome: ok|cached|failed
	attempts       *obs.Counter
	retries        *obs.Counter
	hedges         *obs.Counter
	hedgeWins      *obs.Counter
	notReady       *obs.Counter
	regionSeconds  *obs.Histogram
	regionDuration *obs.HistogramVec // by outcome: ok|retried|hedge-won
	mergeSeconds   *obs.Histogram
	inflight       atomic.Int64
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &coordMetrics{
		regions: reg.CounterVec("pilfill_coord_regions_total",
			"Region jobs by outcome (ok, cached from the WAL, failed).", "outcome"),
		attempts: reg.Counter("pilfill_coord_attempts_total",
			"Region job attempts launched, hedges included."),
		retries: reg.Counter("pilfill_coord_retries_total",
			"Region job retry rounds after a failed attempt."),
		hedges: reg.Counter("pilfill_coord_hedges_total",
			"Hedged duplicate attempts launched on slow regions."),
		hedgeWins: reg.Counter("pilfill_coord_hedge_wins_total",
			"Regions whose hedged attempt finished first."),
		notReady: reg.Counter("pilfill_coord_worker_not_ready_total",
			"Placement skips because a worker's /readyz probe failed."),
		regionSeconds: reg.Histogram("pilfill_coord_region_seconds",
			"Wall seconds per successfully scattered region.", nil),
		regionDuration: reg.HistogramVec("pilfill_coord_region_duration_seconds",
			"Wall seconds per successfully scattered region, by how the win "+
				"arrived (ok first try, retried, hedge-won).", "outcome", nil),
		mergeSeconds: reg.Histogram("pilfill_coord_merge_seconds",
			"Wall seconds merging gathered region payloads.", nil),
	}
	m2 := m
	reg.GaugeSamples("pilfill_coord_inflight_attempts",
		"Region job attempts currently outstanding on workers.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(m2.inflight.Load())}}
		})
	return m
}
