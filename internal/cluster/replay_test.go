package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pilfill/internal/jobqueue"
)

// durableService is a chip service logging to dir/chips.wal, its
// coordinator scattering to workers.
func durableService(t *testing.T, workers []string, dir string) *Service {
	t.Helper()
	coord, err := New(Config{Workers: workers, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{Coordinator: coord, Queue: jobqueue.Config{Capacity: 8, Workers: 1}, DataDir: dir})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	return svc
}

// shutdown drains svc and returns the keys its chips.wal still holds open.
func shutdown(t *testing.T, svc *Service, dir string) []jobqueue.WALRecord {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	w, recs, err := jobqueue.OpenWAL(filepath.Join(dir, "chips.wal"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	return jobqueue.WALUnfinished(recs)
}

func listChips(t *testing.T, svc *Service) []ChipView {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/chips", nil))
	var list ChipListResponse
	if err := json.NewDecoder(rec.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Chips
}

// TestFastFailingChipLeavesNothingUnfinished: a keyed chip whose layout
// fails to load at once is still logged accepted before it is logged done,
// so after shutdown chips.wal holds no unfinished accept. The multi-MB keys
// make encoding each accept payload outlast the failing job: a log that
// appended accept only after the submit returned would record done first
// (or, reading the key from a map the handler had not yet filled, not at
// all) and leave every chip open for a restart to run again.
func TestFastFailingChipLeavesNothingUnfinished(t *testing.T) {
	dir := t.TempDir()
	svc := durableService(t, []string{"http://127.0.0.1:1"}, dir)
	pad := strings.Repeat("k", 4<<20)
	for i := 0; i < 3; i++ {
		body, err := json.Marshal(ChipSubmitRequest{Key: fmt.Sprint(i, pad), Job: ChipJob{Method: "greedy", DEF: "DESIGN x ;"}})
		if err != nil {
			t.Fatal(err)
		}
		if rec := postChip(svc, body); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, rec.Code)
		}
	}
	for _, rec := range shutdown(t, svc, dir) {
		t.Errorf("chip %.20q... left unfinished in the WAL after it failed", rec.Key)
	}
}

// TestChipReplayMarksInvalidJobDone starts a chip service on a chips.wal
// holding three unfinished accepts: a retired method, a negative region
// grid, and one valid chip. Startup resubmits only the valid chip, whose
// merged fill matches RunChipLocal; all three records end marked done, so
// a second service on the same directory resubmits nothing.
func TestChipReplayMarksInvalidJobDone(t *testing.T) {
	dir := t.TempDir()
	job := testChip("greedy", 2, 1)
	valid, err := json.Marshal(ChipSubmitRequest{Key: "valid", Job: job})
	if err != nil {
		t.Fatal(err)
	}
	var wal []byte
	for _, rec := range []struct{ key, body string }{
		{"stale-method", `{"key":"stale-method","job":{"method":"DualAscent","cells_x":6,"cells_y":4}}`},
		{"stale-grid", `{"key":"stale-grid","job":{"method":"greedy","cells_x":6,"cells_y":4,"gx":-1}}`},
		{"valid", string(valid)},
	} {
		line, err := json.Marshal(jobqueue.WALRecord{Type: jobqueue.WALAccept, Key: rec.key, Payload: json.RawMessage(rec.body)})
		if err != nil {
			t.Fatal(err)
		}
		wal = append(append(wal, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "chips.wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareChip(job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunChipLocal(context.Background(), prep)
	if err != nil {
		t.Fatal(err)
	}

	workers := newCluster(t, 2)
	svc := durableService(t, workers, dir)
	chips := listChips(t, svc)
	if len(chips) != 1 || chips[0].Key != "valid" {
		t.Fatalf("replayed chips %+v, want the one valid chip", chips)
	}
	view := chips[0]
	for deadline := time.Now().Add(60 * time.Second); view.State == "pending" || view.State == "running"; {
		if time.Now().After(deadline) {
			t.Fatalf("replayed chip stuck in state %q", view.State)
		}
		time.Sleep(10 * time.Millisecond)
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/chips/"+view.ID, nil))
		view = ChipView{}
		if err := json.NewDecoder(rec.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	if view.State != "done" || view.Report == nil {
		t.Fatalf("replayed chip finished %s (%s)", view.State, view.Error)
	}
	if view.Report.FillHash != want.FillHash || view.Report.FillCount != want.FillCount {
		t.Fatalf("replayed chip fill %s/%d, RunChipLocal %s/%d",
			view.Report.FillHash, view.Report.FillCount, want.FillHash, want.FillCount)
	}
	if open := shutdown(t, svc, dir); len(open) != 0 {
		t.Fatalf("chips.wal still holds %d unfinished accepts, first key %q", len(open), open[0].Key)
	}

	again := durableService(t, workers, dir)
	if chips := listChips(t, again); len(chips) != 0 {
		t.Fatalf("second start resubmitted %+v", chips)
	}
}
