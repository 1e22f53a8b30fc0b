package jobqueue

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// writeLog writes recs as a log file at dir/q.wal and returns its path.
func writeLog(t *testing.T, recs ...WALRecord) string {
	t.Helper()
	var data []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		data = append(append(data, line...), '\n')
	}
	path := filepath.Join(t.TempDir(), "q.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readLog returns every record of the log at path.
func readLog(t *testing.T, path string) []WALRecord {
	t.Helper()
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	return recs
}

func accept(key, payload string) WALRecord {
	return WALRecord{Type: WALAccept, Key: key, Payload: json.RawMessage(payload)}
}

// TestOpenLogLifecycle: OpenLog replays only the unfinished keys, through
// the caller's submit, without logging them accepted a second time; a
// payload the caller refuses is marked done. Afterwards a fresh keyed job
// is logged accept then done, an unkeyed job is not logged, and a job
// cancelled while running stays open for the next start.
func TestOpenLogLifecycle(t *testing.T) {
	path := writeLog(t,
		accept("open", `"run me"`), accept("stale", `"refuse me"`),
		accept("closed", `"ran"`), WALRecord{Type: WALDone, Key: "closed"})
	q := New(Config{Capacity: 4, Workers: 1})
	var replayed []string
	err := q.OpenLog(path, func(key string, payload json.RawMessage) error {
		replayed = append(replayed, key)
		if string(payload) == `"refuse me"` {
			return errors.New("no longer valid")
		}
		_, _, err := q.SubmitKeyed(quickTask(nil), SubmitOptions{Key: key}, payload)
		return err
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if want := []string{"open", "stale"}; !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed %v, want %v", replayed, want)
	}
	if _, _, err := q.SubmitKeyed(quickTask(nil), SubmitOptions{Key: "fresh"}, map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(quickTask(nil), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 1)
	running, _, err := q.SubmitKeyed(blockingTask(started, nil), SubmitOptions{Key: "cancelled"}, "again")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := q.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, q, running.ID, Cancelled)
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	recs := readLog(t, path)
	added := append([]WALRecord(nil), recs[4:]...) // workers and the test append concurrently
	byKeyType := func(a, b WALRecord) int { return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Type, b.Type)) }
	slices.SortFunc(added, byKeyType)
	want := []WALRecord{
		accept("cancelled", `"again"`),
		accept("fresh", `{"n":1}`),
		{Type: WALDone, Key: "fresh"},
		{Type: WALDone, Key: "open"},
		{Type: WALDone, Key: "stale"},
	}
	if !reflect.DeepEqual(added, want) {
		t.Fatalf("records appended after the replayed log:\n got %+v\nwant %+v", added, want)
	}
	if open := WALUnfinished(recs); len(open) != 1 || open[0].Key != "cancelled" {
		t.Fatalf("unfinished after shutdown %+v, want only the cancelled job", open)
	}
}

// TestOpenLogFailsOnFullQueue: a queue too small to take the replayed jobs
// fails OpenLog with ErrQueueFull and marks nothing done, so the next start
// replays every key again.
func TestOpenLogFailsOnFullQueue(t *testing.T) {
	path := writeLog(t, accept("a", `1`), accept("b", `2`), accept("c", `3`))
	q := New(Config{Capacity: 1, Workers: 1})
	release := make(chan struct{})
	err := q.OpenLog(path, func(key string, payload json.RawMessage) error {
		_, _, err := q.SubmitKeyed(blockingTask(nil, release), SubmitOptions{Key: key}, payload)
		return err
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("OpenLog on a full queue: %v, want ErrQueueFull", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q.Shutdown(ctx) // cancels the replayed jobs: they stay open
	if open := WALUnfinished(readLog(t, path)); len(open) != 3 {
		t.Fatalf("%d keys unfinished after a failed replay, want 3", len(open))
	}
}
