package jobqueue

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// blockingTask returns a task that signals started (if non-nil), then blocks
// until ctx is cancelled or release is closed. It returns ctx.Err() when
// cancelled — the behavior the queue's contract asks of real tasks.
func blockingTask(started chan<- string, release <-chan struct{}) Task {
	return func(ctx context.Context, setPhase func(string)) (any, error) {
		setPhase("blocked")
		if started != nil {
			started <- "started"
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return "released", nil
		}
	}
}

func quickTask(v any) Task {
	return func(ctx context.Context, setPhase func(string)) (any, error) { return v, nil }
}

// waitState polls until the job reaches the wanted state; it fails the test
// after the deadline.
func waitState(t *testing.T, q *Queue, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := q.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if snap.State == want {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %v, want %v", id, snap.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBackpressureWhenFull(t *testing.T) {
	q := New(Config{Capacity: 2, Workers: 1})
	defer q.Shutdown(context.Background())

	started := make(chan string, 1)
	release := make(chan struct{})

	running, err := q.Submit(blockingTask(started, release), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied; buffer is empty again

	var queued []Snapshot
	for i := 0; i < 2; i++ {
		snap, err := q.Submit(blockingTask(nil, release), SubmitOptions{})
		if err != nil {
			t.Fatalf("submit %d into free buffer: %v", i, err)
		}
		queued = append(queued, snap)
	}
	if _, err := q.Submit(quickTask(nil), SubmitOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into full queue: err = %v, want ErrQueueFull", err)
	}
	if got := q.Stats().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if depth := q.Stats().Depth(); depth != 2 {
		t.Fatalf("queue depth = %d, want 2", depth)
	}

	// Free the pool: everything drains, and the queue accepts again.
	close(release)
	waitState(t, q, running.ID, Done)
	for _, snap := range queued {
		waitState(t, q, snap.ID, Done)
	}
	if _, err := q.Submit(quickTask("ok"), SubmitOptions{}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestCancelRunningJobFreesWorker(t *testing.T) {
	q := New(Config{Capacity: 4, Workers: 1})
	defer q.Shutdown(context.Background())

	started := make(chan string, 1)
	snap, err := q.Submit(blockingTask(started, nil), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	if _, err := q.Cancel(snap.ID); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	got := waitState(t, q, snap.ID, Cancelled)
	if !errors.Is(got.Err, context.Canceled) {
		t.Fatalf("cancelled job err = %v, want context.Canceled", got.Err)
	}
	if got.Result != nil {
		t.Fatalf("cancelled job kept result %v", got.Result)
	}

	// The worker must be free for the next job.
	next, err := q.Submit(quickTask(42), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, q, next.ID, Done)
	if done.Result != 42 {
		t.Fatalf("result = %v, want 42", done.Result)
	}

	// Cancelling a finished job is a conflict.
	if _, err := q.Cancel(next.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("Cancel finished: err = %v, want ErrFinished", err)
	}
}

func TestCancelPendingJobNeverRuns(t *testing.T) {
	q := New(Config{Capacity: 4, Workers: 1})
	defer q.Shutdown(context.Background())

	started := make(chan string, 1)
	release := make(chan struct{})
	if _, err := q.Submit(blockingTask(started, release), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-started // pin the only worker

	var ran atomic.Bool
	pending, err := q.Submit(func(ctx context.Context, setPhase func(string)) (any, error) {
		ran.Store(true)
		return nil, nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := q.Cancel(pending.ID)
	if err != nil {
		t.Fatalf("Cancel pending: %v", err)
	}
	if snap.State != Cancelled {
		t.Fatalf("state after pending cancel = %v, want Cancelled", snap.State)
	}

	close(release)
	waitState(t, q, pending.ID, Cancelled) // stays terminal
	// Give the worker a chance to (wrongly) run the corpse.
	sentinel, _ := q.Submit(quickTask(nil), SubmitOptions{})
	waitState(t, q, sentinel.ID, Done)
	if ran.Load() {
		t.Fatal("cancelled pending job still ran")
	}
}

func TestDeadlineExpiryFailsJob(t *testing.T) {
	q := New(Config{Capacity: 4, Workers: 1})
	defer q.Shutdown(context.Background())

	snap, err := q.Submit(blockingTask(nil, nil), SubmitOptions{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, snap.ID, Failed)
	if !errors.Is(got.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", got.Err)
	}
}

func TestDefaultTimeoutApplies(t *testing.T) {
	q := New(Config{Capacity: 4, Workers: 1, DefaultTimeout: 20 * time.Millisecond})
	defer q.Shutdown(context.Background())

	snap, err := q.Submit(blockingTask(nil, nil), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, snap.ID, Failed)
	if !errors.Is(got.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", got.Err)
	}
}

// TestSubmitSnapshotIsPending hands jobs to idle workers: the snapshot a
// submit returns must describe the job as accepted, never a state a worker
// moved it to after the hand-off.
func TestSubmitSnapshotIsPending(t *testing.T) {
	q := New(Config{Capacity: 512, Workers: 4})
	defer q.Shutdown(context.Background())

	for i := 0; i < 500; i++ {
		snap, err := q.Submit(quickTask(i), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Pending || !snap.Started.IsZero() || snap.Result != nil {
			t.Fatalf("submit %d returned state %v (started %v, result %v), want a pending snapshot",
				i, snap.State, snap.Started, snap.Result)
		}
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	var finished atomic.Int64
	q := New(Config{Capacity: 8, Workers: 2, OnFinish: func(Snapshot) { finished.Add(1) }})

	var ids []string
	for i := 0; i < 6; i++ {
		snap, err := q.Submit(quickTask(i), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range ids {
		snap, err := q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Done {
			t.Fatalf("job %s state after drain = %v, want Done", id, snap.State)
		}
	}
	if finished.Load() != 6 {
		t.Fatalf("OnFinish fired %d times, want 6", finished.Load())
	}
	if _, err := q.Submit(quickTask(nil), SubmitOptions{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
}

func TestForcedShutdownCancelsStragglers(t *testing.T) {
	q := New(Config{Capacity: 8, Workers: 1})

	started := make(chan string, 1)
	running, err := q.Submit(blockingTask(started, nil), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := q.Submit(blockingTask(nil, nil), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := q.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown err = %v, want DeadlineExceeded", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		snap, err := q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Cancelled {
			t.Fatalf("job %s after forced shutdown = %v, want Cancelled", id, snap.State)
		}
	}
}

func TestPanicBecomesFailed(t *testing.T) {
	q := New(Config{Capacity: 4, Workers: 1})
	defer q.Shutdown(context.Background())

	snap, err := q.Submit(func(ctx context.Context, setPhase func(string)) (any, error) {
		panic("boom")
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, snap.ID, Failed)
	if got.Err == nil {
		t.Fatal("panicked job has nil error")
	}
	// The worker survived the panic.
	next, _ := q.Submit(quickTask("alive"), SubmitOptions{})
	waitState(t, q, next.ID, Done)
}

func TestPhaseAndListVisibility(t *testing.T) {
	q := New(Config{Capacity: 4, Workers: 1})
	defer q.Shutdown(context.Background())

	started := make(chan string, 1)
	release := make(chan struct{})
	snap, err := q.Submit(blockingTask(started, release), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	got, err := q.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != Running || got.Phase != "blocked" {
		t.Fatalf("running snapshot = %v/%q, want running/blocked", got.State, got.Phase)
	}
	if l := q.List(); len(l) != 1 || l[0].ID != snap.ID {
		t.Fatalf("List = %v, want the one job", l)
	}
	close(release)
	waitState(t, q, snap.ID, Done)
}

// TestProgressAndTraceVisibility covers the live-progress channel: a task's
// PublishProgress values surface in snapshots while it runs, the submitted
// trace ID rides every snapshot, and progress from a foreign context is a
// safe no-op.
func TestProgressAndTraceVisibility(t *testing.T) {
	q := New(Config{Capacity: 4, Workers: 1})
	defer q.Shutdown(context.Background())

	published := make(chan struct{})
	release := make(chan struct{})
	task := func(ctx context.Context, setPhase func(string)) (any, error) {
		PublishProgress(ctx, 1)
		PublishProgress(ctx, 42) // later value wins
		close(published)
		<-release
		return "ok", nil
	}
	snap, err := q.Submit(task, SubmitOptions{Trace: "chip-1/r0#1"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Trace != "chip-1/r0#1" {
		t.Fatalf("submit snapshot trace = %q", snap.Trace)
	}
	<-published
	got, err := q.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Progress != 42 {
		t.Fatalf("running progress = %v, want 42", got.Progress)
	}
	close(release)
	final := waitState(t, q, snap.ID, Done)
	if final.Trace != "chip-1/r0#1" || final.Progress != 42 {
		t.Fatalf("final snapshot trace/progress = %q/%v", final.Trace, final.Progress)
	}

	PublishProgress(context.Background(), "ignored") // foreign ctx: no-op
}
