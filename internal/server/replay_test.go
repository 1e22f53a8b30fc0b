package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/server"
)

// listJobs returns every job the server knows, via GET /v1/jobs.
func listJobs(t *testing.T, base string) []server.JobView {
	t.Helper()
	code, data := doJSON(t, http.MethodGet, base+"/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, data)
	}
	var lr server.ListResponse
	if err := json.Unmarshal(data, &lr); err != nil {
		t.Fatal(err)
	}
	return lr.Jobs
}

// TestReplayMarksInvalidJobDone starts a server on a WAL holding two
// unfinished accepts: one naming a method the server no longer knows and
// one valid ILP-II job. Startup must succeed and resubmit only the valid
// job, which runs to done; both records end marked done in the WAL, so a
// second server on the same directory resubmits nothing.
func TestReplayMarksInvalidJobDone(t *testing.T) {
	dir := t.TempDir()
	var wal []byte
	for _, rec := range []struct{ key, body string }{
		{"stale", `{"testcase":"T1","method":"DualAscent","options":{"window":32,"r":4}}`},
		{"valid", `{"testcase":"T1","method":"ILP-II","options":{"window":32,"r":4,"seed":1}}`},
	} {
		line, err := json.Marshal(jobqueue.WALRecord{Type: jobqueue.WALAccept, Key: rec.key, Payload: json.RawMessage(rec.body)})
		if err != nil {
			t.Fatal(err)
		}
		wal = append(append(wal, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Queue: jobqueue.Config{Capacity: 4, Workers: 1}, DataDir: dir}

	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New on a WAL with an invalid job: %v", err)
	}
	ts := httptest.NewServer(s)
	jobs := listJobs(t, ts.URL)
	if len(jobs) != 1 || jobs[0].Method != "ILP-II" {
		ts.Close()
		t.Fatalf("replayed jobs %+v, want the one ILP-II job", jobs)
	}
	final := pollJob(t, ts.URL, jobs[0].ID, func(v server.JobView) bool { return v.State == "done" || v.State == "failed" })
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Report == nil || final.Report.Method != "ILP-II" {
		t.Fatalf("replayed job finished %s (%s), report %+v", final.State, final.Error, final.Report)
	}

	w, recs, err := jobqueue.OpenWAL(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if open := jobqueue.WALUnfinished(recs); len(open) != 0 {
		t.Fatalf("WAL still holds %d unfinished accepts after the first server, first key %q", len(open), open[0].Key)
	}
	_, ts2 := startServer(t, cfg)
	if jobs := listJobs(t, ts2.URL); len(jobs) != 0 {
		t.Fatalf("second start resubmitted %+v", jobs)
	}
}

// TestSubmitRejectsRetiredFields: a submit naming a removed method, or
// carrying a removed option field, gets a 400.
func TestSubmitRejectsRetiredFields(t *testing.T) {
	_, ts := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 2, Workers: 1}})
	for _, body := range []string{
		`{"testcase":"T1","method":"DualAscent"}`,
		`{"testcase":"T1","method":"ILP-II","options":{"dual_gap_tol":1e-9}}`,
	} {
		if code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", json.RawMessage(body)); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", body, code, data)
		}
	}
}

// TestFastKeyedJobLeavesNothingUnfinished: a keyed job that finishes the
// moment it is queued is still logged accepted before it is logged done, so
// after shutdown the WAL holds no unfinished accept and a restart would
// replay nothing. The multi-MB bodies make encoding each accept payload
// outlast its instant task: a log that appended accept only after the
// submit returned would record done first and leave every one open.
func TestFastKeyedJobLeavesNothingUnfinished(t *testing.T) {
	dir := t.TempDir()
	instant := func(*server.SubmitRequest) (jobqueue.Task, error) {
		return func(context.Context, func(string)) (any, error) { return nil, nil }, nil
	}
	s, err := server.New(server.Config{
		Queue:       jobqueue.Config{Capacity: 4, Workers: 1},
		TaskFactory: instant,
		DataDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	pad := strings.Repeat("x", 4<<20)
	for _, key := range []string{"fast-1", "fast-2", "fast-3"} {
		code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{DEF: pad, Method: "Greedy", Key: key})
		if code != http.StatusAccepted {
			ts.Close()
			t.Fatalf("submit %s: %d %.200s", key, code, data)
		}
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	w, recs, err := jobqueue.OpenWAL(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	for _, rec := range jobqueue.WALUnfinished(recs) {
		t.Errorf("job %q left unfinished in the WAL after it finished", rec.Key)
	}
}
