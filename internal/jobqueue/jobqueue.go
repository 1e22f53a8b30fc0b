// Package jobqueue implements the bounded job queue behind pilfilld: a
// fixed-capacity FIFO of submitted tasks drained by a fixed worker pool,
// with per-job deadlines, cooperative cancellation via context, and a
// pending → running → done/failed/cancelled state machine.
//
// Backpressure is rejection, not blocking: Submit never waits — when the
// pending buffer is full it returns ErrQueueFull immediately, which the
// HTTP layer maps to 429 so load sheds at the edge instead of piling up
// inside the process. Tasks are plain functions receiving a context; the
// queue guarantees the context is cancelled when the job is deleted, its
// deadline expires, or the queue is force-shut-down, and relies on the task
// honoring it (the pilfill solve path checks it at tile boundaries).
//
// A queue given a write-ahead log (OpenLog) also owns the durability of its
// keyed jobs: it logs each fresh keyed submission's payload before that job
// can be marked done, marks every terminal state but Cancelled done, and
// replays the keys a previous process never finished through the caller's
// own submit path.
package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's position in its lifecycle.
type State int

// Job states. Pending and Running are transient; Done, Failed and
// Cancelled are terminal.
const (
	Pending State = iota
	Running
	Done
	Failed
	Cancelled
)

// String names the state as the HTTP API spells it.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Task is the unit of work: it runs on a queue worker, must return promptly
// once ctx is cancelled, and may call setPhase to publish coarse progress
// ("prepare", "solve", ...) that Get exposes while the job runs.
type Task func(ctx context.Context, setPhase func(string)) (any, error)

// Sentinel errors returned by Submit, Get and Cancel.
var (
	ErrQueueFull = errors.New("jobqueue: queue full")
	ErrDraining  = errors.New("jobqueue: shutting down")
	ErrNotFound  = errors.New("jobqueue: no such job")
	ErrFinished  = errors.New("jobqueue: job already finished")
	errShutdown  = errors.New("jobqueue: cancelled by shutdown")
)

// Config parameterizes a Queue.
type Config struct {
	// Capacity bounds the pending buffer; Submit rejects with ErrQueueFull
	// when it is full. Default 16.
	Capacity int
	// Workers is the number of jobs run concurrently. Default 1.
	Workers int
	// DefaultTimeout is the per-job run deadline applied when
	// SubmitOptions.Timeout is zero; zero means no deadline.
	DefaultTimeout time.Duration
	// OnFinish, when non-nil, is called (outside all queue locks) each time
	// a job reaches a terminal state — the hook the server's metrics hang
	// off. It may be called from worker goroutines and from Cancel.
	OnFinish func(Snapshot)
	// Logger, when non-nil, receives one Info line per job state
	// transition (started, finished with its terminal state and duration).
	Logger *slog.Logger
}

// SubmitOptions carries per-job knobs.
type SubmitOptions struct {
	// Timeout bounds the job's run time (measured from when a worker picks
	// it up, not from submission); zero uses Config.DefaultTimeout.
	Timeout time.Duration
	// Key is an optional caller-supplied external idempotency key. Submitting
	// a task under a key that is already known returns the existing job's
	// snapshot instead of enqueueing a duplicate — the primitive a
	// retry-with-resubmit coordinator needs to make resubmission safe. Keys
	// are never recycled: they stick to their job for the queue's lifetime,
	// terminal or not.
	Key string
	// Trace is an optional distributed trace/request ID to bind to the job:
	// it rides in every Snapshot and is echoed on the started/finished log
	// lines, so one grep correlates a job with the remote caller's attempt.
	Trace string
}

// Snapshot is a race-free copy of a job's externally visible state.
type Snapshot struct {
	ID        string
	Key       string // external idempotency key, when submitted with one
	Trace     string // distributed trace ID, when submitted with one
	State     State
	Phase     string // last setPhase value while running
	Submitted time.Time
	Started   time.Time // zero until the job runs
	Finished  time.Time // zero until terminal
	Progress  any       // last PublishProgress value while running
	Result    any       // the task's return value, when Done
	Err       error     // terminal error, when Failed or Cancelled
}

// job is the internal record; all mutable fields are guarded by mu.
type job struct {
	id      string
	key     string
	trace   string
	task    Task
	timeout time.Duration

	mu              sync.Mutex
	state           State
	phase           string
	submitted       time.Time
	started         time.Time
	finished        time.Time
	progress        any
	result          any
	err             error
	cancel          context.CancelCauseFunc // non-nil only while running
	cancelRequested bool

	// logged is non-nil for a keyed job of a logged queue and closed once
	// its accept record is durable; the done record waits for it.
	logged chan struct{}
}

func (j *job) snapshotLocked() Snapshot {
	return Snapshot{
		ID:        j.id,
		Key:       j.key,
		Trace:     j.trace,
		State:     j.state,
		Phase:     j.phase,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Progress:  j.progress,
		Result:    j.result,
		Err:       j.err,
	}
}

func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// Stats is a point-in-time view of the queue for health and metrics.
type Stats struct {
	Capacity  int           // configured pending-buffer bound
	Workers   int           // configured worker count
	ByState   map[State]int // current job counts, including terminal ones
	Submitted int64         // lifetime accepted jobs
	Rejected  int64         // lifetime ErrQueueFull + ErrDraining rejections
	Draining  bool          // Shutdown has begun
}

// Depth is the number of jobs waiting to run.
func (s Stats) Depth() int { return s.ByState[Pending] }

// Queue is a bounded FIFO job queue with a fixed worker pool. Create one
// with New; the zero value is not usable.
type Queue struct {
	cfg     Config
	pending chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	keys     map[string]string // external key -> job id
	order    []string          // submission order, for List
	nextID   int64
	draining bool

	log       *WAL   // keyed-job log; nil unless OpenLog succeeded
	replaying string // key OpenLog is resubmitting; its accept is on disk

	submitted atomic.Int64
	rejected  atomic.Int64

	baseCtx    context.Context // cancelled only by forced shutdown
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup
}

// New builds the queue and starts its workers.
func New(cfg Config) *Queue {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	q := &Queue{
		cfg:     cfg,
		pending: make(chan *job, cfg.Capacity),
		jobs:    make(map[string]*job),
		keys:    make(map[string]string),
	}
	q.baseCtx, q.baseCancel = context.WithCancelCause(context.Background())
	for w := 0; w < cfg.Workers; w++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit enqueues a task. It never blocks: a full buffer returns
// ErrQueueFull and a draining queue returns ErrDraining, both with a zero
// Snapshot. When SubmitOptions.Key matches an existing job the existing
// snapshot is returned without enqueueing anything (see SubmitKeyed for the
// dedupe indication and the logged payload).
func (q *Queue) Submit(task Task, opts SubmitOptions) (Snapshot, error) {
	snap, _, err := q.SubmitKeyed(task, opts, nil)
	return snap, err
}

// SubmitKeyed is Submit reporting idempotent-key deduplication: when
// opts.Key names a job the queue already knows, the existing job's snapshot
// is returned with deduped == true — no new job is created, the duplicate is
// not counted as a submission, and a draining or full queue does not reject
// the lookup. A fresh submission returns deduped == false.
//
// On a logged queue (OpenLog) a fresh keyed submission also appends an
// accept record carrying payload, JSON-encoded, which is what OpenLog hands
// back to the caller for replay. SubmitKeyed returns once that record is
// durable, and the job's done record is held until then, so a job that
// finishes at once can never be logged done before it is logged accepted.
// Without a log, or without a key, payload is not touched.
func (q *Queue) SubmitKeyed(task Task, opts SubmitOptions, payload any) (Snapshot, bool, error) {
	if task == nil {
		return Snapshot{}, false, errors.New("jobqueue: nil task")
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = q.cfg.DefaultTimeout
	}
	q.mu.Lock()
	if opts.Key != "" {
		if id, ok := q.keys[opts.Key]; ok {
			j := q.jobs[id]
			q.mu.Unlock()
			return j.snapshot(), true, nil
		}
	}
	if q.draining {
		q.mu.Unlock()
		q.rejected.Add(1)
		return Snapshot{}, false, ErrDraining
	}
	q.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%08d", q.nextID),
		key:       opts.Key,
		trace:     opts.Trace,
		task:      task,
		timeout:   timeout,
		state:     Pending,
		submitted: time.Now(),
	}
	if q.log != nil && opts.Key != "" {
		j.logged = make(chan struct{})
	}
	accept := j.logged != nil && opts.Key != q.replaying
	// Snapshot while the job is still private: once it is on q.pending an
	// idle worker may mark it running before this returns.
	snap := j.snapshotLocked()
	select {
	case q.pending <- j:
	default:
		q.nextID-- // unused ID; keep IDs dense
		q.mu.Unlock()
		q.rejected.Add(1)
		return Snapshot{}, false, ErrQueueFull
	}
	q.jobs[j.id] = j
	if j.key != "" {
		q.keys[j.key] = j.id
	}
	q.order = append(q.order, j.id)
	q.submitted.Add(1)
	q.mu.Unlock()
	if j.logged != nil {
		defer close(j.logged)
	}
	if accept {
		q.appendLog(WALAccept, j.key, payload)
	}
	return snap, false, nil
}

// OpenLog makes the queue's keyed jobs durable through the write-ahead log
// at path, which it creates if needed and closes at the end of Shutdown.
// Each key a previous process accepted but never finished is first handed
// back to replay with the payload its accept record carries; replay should
// rebuild the job and resubmit it under that key through the caller's usual
// SubmitKeyed path, which then writes no second accept record.
// A replay error means the job no longer decodes or validates: the record
// is marked done so it is not tried on every start. Only a queue that
// cannot take the job (ErrQueueFull, ErrDraining) fails OpenLog. Call it
// once, before the queue takes outside submissions.
func (q *Queue) OpenLog(path string, replay func(key string, payload json.RawMessage) error) error {
	log, recs, err := OpenWAL(path)
	if err != nil {
		return err
	}
	q.mu.Lock()
	q.log = log
	q.mu.Unlock()
	for _, rec := range WALUnfinished(recs) {
		q.mu.Lock()
		q.replaying = rec.Key
		q.mu.Unlock()
		err := replay(rec.Key, rec.Payload)
		q.mu.Lock()
		q.replaying = ""
		q.mu.Unlock()
		switch {
		case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining):
			return fmt.Errorf("jobqueue: replay %q: %w", rec.Key, err)
		case err != nil:
			if lg := q.cfg.Logger; lg != nil {
				lg.Warn("wal replay: job no longer valid, marking done", "key", rec.Key, "err", err)
			}
			if err := log.Append(WALRecord{Type: WALDone, Key: rec.Key}); err != nil {
				return err
			}
		default:
			if lg := q.cfg.Logger; lg != nil {
				lg.Info("wal replay: resubmitted job", "key", rec.Key)
			}
		}
	}
	return nil
}

// appendLog durably writes one record of the keyed-job log; a failure is
// logged, as the job it concerns is already queued or finished.
func (q *Queue) appendLog(typ, key string, payload any) {
	rec := WALRecord{Type: typ, Key: key}
	var err error
	if payload != nil {
		rec.Payload, err = json.Marshal(payload)
	}
	if err == nil {
		err = q.log.Append(rec)
	}
	if err != nil && q.cfg.Logger != nil {
		q.cfg.Logger.Error("wal append failed", "type", typ, "key", key, "err", err)
	}
}

// Get returns a job's current snapshot.
func (q *Queue) Get(id string) (Snapshot, error) {
	q.mu.Lock()
	j := q.jobs[id]
	q.mu.Unlock()
	if j == nil {
		return Snapshot{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// List returns snapshots of every known job in submission order.
func (q *Queue) List() []Snapshot {
	snaps, _ := q.ListPage("", 0)
	return snaps
}

// ListPage returns up to limit snapshots in submission order, starting
// strictly after the job named by the cursor (an empty cursor starts at the
// beginning; limit <= 0 means no bound). The second return is the cursor for
// the next page — the last returned job's id — or "" when the listing is
// exhausted. Submission order never reorders existing entries, so paging
// with the returned cursor observes each job at most once even while new
// jobs arrive. An unknown cursor yields an empty page (the job may predate a
// restart); callers should restart from "".
func (q *Queue) ListPage(after string, limit int) ([]Snapshot, string) {
	q.mu.Lock()
	start := 0
	if after != "" {
		start = len(q.order) // unknown cursor: empty page
		for i, id := range q.order {
			if id == after {
				start = i + 1
				break
			}
		}
	}
	end := len(q.order)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	js := make([]*job, end-start)
	for i, id := range q.order[start:end] {
		js[i] = q.jobs[id]
	}
	more := end < len(q.order)
	q.mu.Unlock()
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	next := ""
	if more && len(out) > 0 {
		next = out[len(out)-1].ID
	}
	return out, next
}

// Cancel stops a job: a pending job goes terminal immediately (its queue
// slot is discarded when a worker reaches it), a running job has its
// context cancelled and goes terminal once the task returns. Cancelling an
// already-terminal job returns ErrFinished with the unchanged snapshot.
func (q *Queue) Cancel(id string) (Snapshot, error) {
	q.mu.Lock()
	j := q.jobs[id]
	q.mu.Unlock()
	if j == nil {
		return Snapshot{}, ErrNotFound
	}
	j.mu.Lock()
	switch j.state {
	case Pending:
		j.cancelRequested = true
		j.state = Cancelled
		j.finished = time.Now()
		j.err = context.Canceled
		snap := j.snapshotLocked()
		j.mu.Unlock()
		q.finish(j, snap)
		return snap, nil
	case Running:
		j.cancelRequested = true
		cancel := j.cancel
		snap := j.snapshotLocked()
		j.mu.Unlock()
		if cancel != nil {
			cancel(context.Canceled)
		}
		return snap, nil
	default:
		snap := j.snapshotLocked()
		j.mu.Unlock()
		return snap, ErrFinished
	}
}

// Stats snapshots the queue's aggregate state.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	js := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		js = append(js, j)
	}
	s := Stats{
		Capacity:  q.cfg.Capacity,
		Workers:   q.cfg.Workers,
		ByState:   make(map[State]int),
		Draining:  q.draining,
		Submitted: q.submitted.Load(),
		Rejected:  q.rejected.Load(),
	}
	q.mu.Unlock()
	for _, j := range js {
		j.mu.Lock()
		s.ByState[j.state]++
		j.mu.Unlock()
	}
	return s
}

// Draining reports whether Shutdown has begun (new submissions rejected).
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// Shutdown stops accepting new jobs and drains the accepted ones: running
// jobs finish and queued jobs still run. If ctx expires first, every
// remaining job is cancelled (running tasks via their context, queued ones
// before they start), the workers are awaited, and ctx.Err() is returned.
// The first call then closes the log, if any. Shutdown is idempotent;
// concurrent calls all wait for the drain.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	first := !q.draining
	if first {
		q.draining = true
		close(q.pending) // Submit sends under q.mu after checking draining
	}
	log := q.log
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		q.baseCancel(errShutdown)
		<-done
		err = ctx.Err()
	}
	if first {
		if cerr := log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.pending {
		q.runJob(j)
	}
}

// runJob executes one dequeued job through its terminal state.
func (q *Queue) runJob(j *job) {
	j.mu.Lock()
	if j.state != Pending { // cancelled while queued
		j.mu.Unlock()
		return
	}
	if q.baseCtx.Err() != nil { // forced shutdown before this job started
		j.state = Cancelled
		j.finished = time.Now()
		j.err = errShutdown
		snap := j.snapshotLocked()
		j.mu.Unlock()
		q.finish(j, snap)
		return
	}
	ctx, cancel := context.WithCancelCause(q.baseCtx)
	runCtx := ctx
	stopTimer := func() {}
	if j.timeout > 0 {
		runCtx, stopTimer = context.WithTimeout(ctx, j.timeout)
	}
	runCtx = context.WithValue(runCtx, progressKey{}, j.setProgress)
	j.state = Running
	j.started = time.Now()
	j.cancel = cancel
	task := j.task
	j.mu.Unlock()
	if lg := q.cfg.Logger; lg != nil {
		if j.trace != "" {
			lg.Info("job started", "job", j.id, "trace", j.trace)
		} else {
			lg.Info("job started", "job", j.id)
		}
	}

	result, err := runTask(task, runCtx, j.setPhase)
	stopTimer()
	cancel(nil)

	j.mu.Lock()
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case j.cancelRequested || errors.Is(err, errShutdown) ||
		(q.baseCtx.Err() != nil && errors.Is(err, context.Canceled)):
		j.state = Cancelled
		if err == nil {
			err = context.Canceled // task won the race against its cancel
		}
		j.err = err
	case err != nil:
		j.state = Failed
		j.err = err
	default:
		j.state = Done
		j.result = result
	}
	snap := j.snapshotLocked()
	j.mu.Unlock()
	q.finish(j, snap)
}

// finish logs a job's terminal transition, marks a logged job done unless
// it was cancelled (a drain-time cancellation must be replayed after a
// restart, or accepted work would be lost), and fires the OnFinish hook; it
// must be called outside all queue and job locks.
func (q *Queue) finish(j *job, snap Snapshot) {
	if lg := q.cfg.Logger; lg != nil {
		dur := time.Duration(0)
		if !snap.Started.IsZero() {
			dur = snap.Finished.Sub(snap.Started)
		}
		attrs := []any{"job", snap.ID, "state", snap.State.String(), "dur", dur}
		if snap.Trace != "" {
			attrs = append(attrs, "trace", snap.Trace)
		}
		if snap.Err != nil {
			attrs = append(attrs, "err", snap.Err)
		}
		lg.Info("job finished", attrs...)
	}
	if j.logged != nil && snap.State != Cancelled {
		<-j.logged
		q.appendLog(WALDone, snap.Key, nil)
	}
	if q.cfg.OnFinish != nil {
		q.cfg.OnFinish(snap)
	}
}

func (j *job) setPhase(phase string) {
	j.mu.Lock()
	j.phase = phase
	j.mu.Unlock()
}

func (j *job) setProgress(v any) {
	j.mu.Lock()
	j.progress = v
	j.mu.Unlock()
}

// progressKey carries a job's progress setter in its run context.
type progressKey struct{}

// PublishProgress stores v as the running job's progress value, visible in
// subsequent Snapshots (and through GET /v1/jobs/{id}/progress at the HTTP
// layer). It is a no-op when ctx does not belong to a jobqueue task. v must
// be treated as immutable once published: snapshots hand out the same value
// concurrently.
func PublishProgress(ctx context.Context, v any) {
	if set, ok := ctx.Value(progressKey{}).(func(any)); ok {
		set(v)
	}
}

// runTask isolates task panics so one bad job fails instead of killing the
// worker (and with it the whole pool).
func runTask(task Task, ctx context.Context, setPhase func(string)) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("jobqueue: task panic: %v", r)
		}
	}()
	return task(ctx, setPhase)
}
