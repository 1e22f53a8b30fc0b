package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestKeyedSubmitDedupes(t *testing.T) {
	q := New(Config{Capacity: 4, Workers: 1})
	defer q.Shutdown(context.Background())

	release := make(chan struct{})
	first, dup, err := q.SubmitKeyed(blockingTask(nil, release), SubmitOptions{Key: "region-a"}, nil)
	if err != nil || dup {
		t.Fatalf("fresh keyed submit: dup=%v err=%v", dup, err)
	}
	if first.Key != "region-a" {
		t.Fatalf("snapshot key = %q, want region-a", first.Key)
	}

	// Same key again: same job, no new submission, deduped flag set.
	again, dup, err := q.SubmitKeyed(quickTask("other"), SubmitOptions{Key: "region-a"}, nil)
	if err != nil {
		t.Fatalf("duplicate keyed submit: %v", err)
	}
	if !dup || again.ID != first.ID {
		t.Fatalf("duplicate submit: dup=%v id=%s, want dup=true id=%s", dup, again.ID, first.ID)
	}
	if got := q.Stats().Submitted; got != 1 {
		t.Fatalf("submitted counter = %d, want 1 (dedupe must not count)", got)
	}

	// Submit through the plain wrapper too: still the same job.
	viaSubmit, err := q.Submit(quickTask("other"), SubmitOptions{Key: "region-a"})
	if err != nil || viaSubmit.ID != first.ID {
		t.Fatalf("Submit with dup key: id=%s err=%v, want id=%s", viaSubmit.ID, err, first.ID)
	}

	// A different key is a fresh job.
	other, dup, err := q.SubmitKeyed(quickTask("b"), SubmitOptions{Key: "region-b"}, nil)
	if err != nil || dup || other.ID == first.ID {
		t.Fatalf("distinct key: id=%s dup=%v err=%v", other.ID, dup, err)
	}

	// Dedupe still answers after the job finishes and even while draining.
	close(release)
	waitState(t, q, first.ID, Done)
	go q.Shutdown(context.Background())
	for !q.Draining() {
		time.Sleep(time.Millisecond)
	}
	done := waitState(t, q, first.ID, Done)
	snap, dup, err := q.SubmitKeyed(quickTask("x"), SubmitOptions{Key: "region-a"}, nil)
	if err != nil || !dup || snap.ID != done.ID {
		t.Fatalf("dedupe while draining: id=%s dup=%v err=%v", snap.ID, dup, err)
	}
	if _, _, err := q.SubmitKeyed(quickTask("x"), SubmitOptions{Key: "region-new"}, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("fresh key while draining: err = %v, want ErrDraining", err)
	}
}

func TestKeyedSubmitFullQueueStillDedupes(t *testing.T) {
	q := New(Config{Capacity: 1, Workers: 1})
	defer q.Shutdown(context.Background())

	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	running, err := q.Submit(blockingTask(started, release), SubmitOptions{Key: "busy"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := q.Submit(blockingTask(nil, release), SubmitOptions{Key: "fill"}); err != nil {
		t.Fatalf("fill buffer: %v", err)
	}

	// Queue is full: a fresh key is rejected, a known key is still answered.
	if _, _, err := q.SubmitKeyed(quickTask(nil), SubmitOptions{Key: "overflow"}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fresh key into full queue: err = %v, want ErrQueueFull", err)
	}
	snap, dup, err := q.SubmitKeyed(quickTask(nil), SubmitOptions{Key: "busy"}, nil)
	if err != nil || !dup || snap.ID != running.ID {
		t.Fatalf("dedupe into full queue: id=%s dup=%v err=%v", snap.ID, dup, err)
	}
}

func TestListPagePagination(t *testing.T) {
	q := New(Config{Capacity: 16, Workers: 1})
	defer q.Shutdown(context.Background())

	var ids []string
	for i := 0; i < 7; i++ {
		snap, err := q.Submit(quickTask(i), SubmitOptions{Key: fmt.Sprintf("k%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}

	// Walk in pages of 3: every job exactly once, in submission order.
	var walked []string
	cursor := ""
	pages := 0
	for {
		page, next := q.ListPage(cursor, 3)
		pages++
		for _, s := range page {
			walked = append(walked, s.ID)
		}
		if next == "" {
			break
		}
		if next != page[len(page)-1].ID {
			t.Fatalf("cursor %q is not the last returned id %q", next, page[len(page)-1].ID)
		}
		cursor = next
	}
	if pages != 3 || len(walked) != len(ids) {
		t.Fatalf("walk: %d pages, %d jobs, want 3 pages of 7 jobs", pages, len(walked))
	}
	for i, id := range walked {
		if id != ids[i] {
			t.Fatalf("page walk out of order at %d: %s, want %s", i, id, ids[i])
		}
	}

	// limit <= 0 means everything; List() is the same view.
	all, next := q.ListPage("", 0)
	if len(all) != 7 || next != "" {
		t.Fatalf("unbounded page: %d jobs, next=%q", len(all), next)
	}
	if got := q.List(); len(got) != 7 || got[0].ID != ids[0] {
		t.Fatalf("List() = %d jobs starting %s", len(got), got[0].ID)
	}

	// Exact final page reports exhaustion.
	page, next := q.ListPage(ids[3], 3)
	if len(page) != 3 || next != "" {
		t.Fatalf("final page: %d jobs next=%q, want 3 jobs next=\"\"", len(page), next)
	}

	// Unknown cursor (e.g. from before a restart) yields an empty page.
	if page, next := q.ListPage("job-99999999", 3); len(page) != 0 || next != "" {
		t.Fatalf("unknown cursor: %d jobs next=%q, want empty", len(page), next)
	}
}
