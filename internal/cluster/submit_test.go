package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/server"
)

// submitService is a chip service whose coordinator names one worker that
// is never contacted: the tests here only submit.
func submitService(t testing.TB) *Service {
	t.Helper()
	coord, err := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{Coordinator: coord, Queue: jobqueue.Config{Capacity: 4, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func postChip(svc *Service, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/chips", bytes.NewReader(body)))
	return rec
}

// TestSubmitRejectsBadOptions: a chip job whose worker-side options no
// region could run is refused with 400 at submit, and nothing is queued.
func TestSubmitRejectsBadOptions(t *testing.T) {
	svc := submitService(t)
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	for _, body := range []string{
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"options":{"slackdef":9}}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"options":{"window":-32}}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"kernel":"box"}}`,
		`{"job":{"method":"nope","cells_x":1,"cells_y":1}}`,
		`{"job":{"method":"greedy"}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"gx":-1}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"target_min":-1}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"target_min":0.8,"max_density":0.5}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"window_nm":12800,"r":3}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"rule_gap_nm":-50}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"options":{"dual_gap_tol":1e-9}}}`,
	} {
		if rec := postChip(svc, []byte(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", body, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/chips", nil))
	var list ChipListResponse
	if err := json.NewDecoder(rec.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Chips) != 0 {
		t.Errorf("%d chip jobs queued, want none", len(list.Chips))
	}
	if _, err := PrepareChip(ChipJob{Method: "greedy", CellsX: 1, CellsY: 1, Options: server.SubmitOptions{SlackDef: 9}}); err == nil {
		t.Error("PrepareChip accepted slackdef 9")
	}
}

// FuzzChipSubmitRequest: POST /v1/chips answers 400 exactly when the body
// does not decode strictly (an unknown or retired field is an error) or its
// job fails ChipJob.Validate. The service is drained
// before the first request, so a valid job is refused with 503 instead of
// being queued: no chip is ever generated or budgeted, whatever cells_x and
// cells_y the fuzzer picks.
func FuzzChipSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		`{"key":"k","job":{"method":"greedy","cells_x":2,"cells_y":2,"gx":2,"gy":1,"options":{"window":32,"r":4}}}`,
		`{"job":{"method":"ILP-II","def":"DESIGN x ;","kernel":"gaussian"}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"options":{"slackdef":9}}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"kernel":"box"}}`,
		`{"job":{"method":"nope","cells_x":1,"cells_y":1}}`,
		`{"job":{"method":"greedy","cells_x":0}}`,
		`{"job":{"method":"greedy","cells_x":1,"cells_y":1,"options":{"dual_gap_tol":1e-9}}}`,
		`{}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	svc := submitService(f)
	if err := svc.Shutdown(context.Background()); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ChipSubmitRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		invalid := dec.Decode(&req) != nil || req.Job.Validate() != nil
		rec := postChip(svc, body)
		if rec.Code == http.StatusAccepted || rec.Code == http.StatusOK {
			t.Fatalf("drained service queued %s", body)
		}
		if (rec.Code == http.StatusBadRequest) != invalid {
			t.Fatalf("%s: status %d, invalid %v", body, rec.Code, invalid)
		}
	})
}

// TestChipAnswersLikePilfilld: a full chip queue answers 429 with
// Retry-After, and cancelling a chip that already finished answers 409, as
// pilfilld does for its jobs. The only worker stalls every region
// submission, so the first chip stays running while the rest queue.
func TestChipAnswersLikePilfilld(t *testing.T) {
	stall := func(h http.Handler) http.Handler { return &stallMatching{inner: h, d: time.Minute} }
	coord, err := New(Config{Workers: []string{newWorker(t, stall).URL}, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{Coordinator: coord, Queue: jobqueue.Config{Capacity: 1, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	body, _ := json.Marshal(ChipSubmitRequest{Job: testChip("greedy", 1, 1)})
	submit := func() *httptest.ResponseRecorder { return postChip(svc, body) }
	do := func(method, id string) (int, ChipView) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(method, "/v1/chips/"+id, nil))
		var v ChipView
		json.NewDecoder(rec.Body).Decode(&v)
		return rec.Code, v
	}

	var running ChipView
	json.NewDecoder(submit().Body).Decode(&running)
	for deadline := time.Now().Add(10 * time.Second); running.State != "running"; _, running = do(http.MethodGet, running.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("first chip never ran: %+v", running)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var pending ChipView
	if rec := submit(); rec.Code != http.StatusAccepted {
		t.Fatalf("second chip: status %d, want 202 into the free slot", rec.Code)
	} else {
		json.NewDecoder(rec.Body).Decode(&pending)
	}
	if rec := submit(); rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("third chip: status %d Retry-After %q, want 429 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	if code, v := do(http.MethodDelete, pending.ID); code != http.StatusOK || v.State != "cancelled" {
		t.Fatalf("cancel pending chip: %d %s, want 200 cancelled", code, v.State)
	}
	if code, _ := do(http.MethodDelete, pending.ID); code != http.StatusConflict {
		t.Fatalf("cancel finished chip: %d, want 409", code)
	}
	if code, _ := do(http.MethodDelete, "job-99999999"); code != http.StatusNotFound {
		t.Fatalf("cancel unknown chip: %d, want 404", code)
	}
	if code, _ := do(http.MethodDelete, running.ID); code != http.StatusOK {
		t.Fatalf("cancel running chip: %d, want 200", code)
	}
}
