package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
// does not decode or its job fails ChipJob.Validate. The service is drained
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
		invalid := json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || req.Job.Validate() != nil
		rec := postChip(svc, body)
		if rec.Code == http.StatusAccepted || rec.Code == http.StatusOK {
			t.Fatalf("drained service queued %s", body)
		}
		if (rec.Code == http.StatusBadRequest) != invalid {
			t.Fatalf("%s: status %d, invalid %v", body, rec.Code, invalid)
		}
	})
}
