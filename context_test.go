package pilfill

import (
	"context"
	"errors"
	"testing"
	"time"
)

// t2Session builds a small session shared by the cancellation tests.
func t2Session(t *testing.T, opts Options) *Session {
	t.Helper()
	l, err := GenerateT2()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Window == 0 {
		opts.Window = 51200
	}
	if opts.R == 0 {
		opts.R = 4
	}
	opts.Rule = DefaultRuleT1T2()
	s, err := NewSession(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunContextPreCancelled(t *testing.T) {
	s := t2Session(t, Options{Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, Greedy); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext err = %v, want context.Canceled", err)
	}
	// The same session still works with a live context.
	if _, err := s.RunContext(context.Background(), Greedy); err != nil {
		t.Fatalf("run after cancelled run: %v", err)
	}
}

func TestRunContextPreCancelledILPII(t *testing.T) {
	// ILP-II honors cancellation inside the hull sweep that certifies its
	// warm start, not only at tile boundaries.
	s := t2Session(t, Options{Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, ILPII); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext err = %v, want context.Canceled", err)
	}
	if _, err := s.RunContext(context.Background(), ILPII); err != nil {
		t.Fatalf("run after cancelled run: %v", err)
	}
}

func TestRunContextDeadlineMidSolve(t *testing.T) {
	l, err := GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	// Uncapped, every T1 tile's warm start passes the hull certificate and
	// the run finishes in milliseconds. The 1e-14 s net cap makes three
	// tiles' repaired incumbents fail it, and their branch-and-bound (node
	// limit 2000) takes hundreds of milliseconds, so a short deadline must
	// abort mid-run via the tile-boundary and branch-and-bound checks, well
	// before the natural completion time.
	s, err := NewSession(l, Options{Window: 51200, R: 4, Seed: 1, Rule: DefaultRuleT1T2(),
		NetCap: 1e-14, ILPNodeLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.RunContext(ctx, ILPII)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; solver did not stop promptly", elapsed)
	}
	// An uncancelled run on the same session still matches a fresh run.
	rep, err := s.Run(ILPII)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Placed != rep.Result.Requested {
		t.Fatalf("post-cancel run placed %d of %d", rep.Result.Placed, rep.Result.Requested)
	}
}

func TestRunMVDCContextCancelled(t *testing.T) {
	s := t2Session(t, Options{Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.RunMVDCContext(ctx, 1e-6); !errors.Is(err, context.Canceled) {
		t.Fatalf("MVDC err = %v, want context.Canceled", err)
	}
}

func TestRunBudgetedContextCancelled(t *testing.T) {
	s := t2Session(t, Options{Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunBudgetedContext(ctx, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("budgeted err = %v, want context.Canceled", err)
	}
}

// TestCappedILPIIUnderPlaces: on T2 (W 32, r 8) a 2e-15 s net cap leaves
// tiles where no assignment of the full fill amount fits. A cancelled run
// under that cap still fails with context.Canceled; a live run places what
// fits on those tiles instead of failing.
func TestCappedILPIIUnderPlaces(t *testing.T) {
	s := t2Session(t, Options{Seed: 1, R: 8, NetCap: 2e-15})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, ILPII); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled capped run err = %v, want context.Canceled", err)
	}
	rep, err := s.Run(ILPII)
	if err != nil {
		t.Fatalf("capped ILP-II: %v", err)
	}
	if rep.Result.Placed != 81663 || rep.Result.Requested != 82456 {
		t.Errorf("placed %d of %d, want 81663 of 82456", rep.Result.Placed, rep.Result.Requested)
	}
}

// TestRunContextWorkersCancelled covers the concurrent solve path: the
// fan-out must observe the cancel and the reduction must surface it.
func TestRunContextWorkersCancelled(t *testing.T) {
	s := t2Session(t, Options{Seed: 1, Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, ILPII); !errors.Is(err, context.Canceled) {
		t.Fatalf("workers RunContext err = %v, want context.Canceled", err)
	}
}
