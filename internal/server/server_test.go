package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pilfill"
	"pilfill/internal/core"
	"pilfill/internal/jobqueue"
	"pilfill/internal/server"
	"pilfill/internal/testcases"
)

func startServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func pollJob(t *testing.T, base, id string, done func(server.JobView) bool) server.JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		code, data := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, code, data)
		}
		var v server.JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if done(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the wanted condition; last: %+v", id, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEndToEndGreedyMatchesDirectRun is the acceptance path: submit a T1
// Greedy job over HTTP, poll to completion, and require the report's totals
// to equal a direct library run byte-for-byte at the serialization level.
func TestEndToEndGreedyMatchesDirectRun(t *testing.T) {
	_, ts := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 4, Workers: 1}})

	code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{
		Testcase: "T1",
		Method:   "Greedy",
		Options:  server.SubmitOptions{Window: 32, R: 4, Seed: 1},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var sub server.JobView
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.State != "pending" || sub.ID == "" {
		t.Fatalf("submit response: %+v", sub)
	}

	final := pollJob(t, ts.URL, sub.ID, func(v server.JobView) bool { return v.State == "done" || v.State == "failed" })
	if final.State != "done" {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.Report == nil {
		t.Fatal("done job carries no report")
	}

	// Direct library run with identical parameters.
	l, err := pilfill.GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := pilfill.NewSession(l, pilfill.Options{Window: testcases.WindowNM(32), R: 4, Seed: 1, Rule: pilfill.DefaultRuleT1T2()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(pilfill.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	want := server.BuildReport(s, rep)

	got := final.Report
	if got.UnweightedPS != want.UnweightedPS || got.WeightedPS != want.WeightedPS {
		t.Fatalf("delay totals diverge: HTTP (%g, %g) vs direct (%g, %g)",
			got.UnweightedPS, got.WeightedPS, want.UnweightedPS, want.WeightedPS)
	}
	if got.Placed != want.Placed || got.Requested != want.Requested || got.Tiles != want.Tiles {
		t.Fatalf("placement diverges: HTTP %+v vs direct %+v", got, want)
	}
	if got.Density != want.Density {
		t.Fatalf("density control diverges: %+v vs %+v", got.Density, want.Density)
	}
	if got.Method != "Greedy" {
		t.Fatalf("method = %q", got.Method)
	}
}

// TestCappedILPIIJobUnderPlaces: a T2 ILP-II job whose net cap leaves tiles
// with no assignment of their full fill amount ends done, placing what fits
// there, rather than failing.
func TestCappedILPIIJobUnderPlaces(t *testing.T) {
	_, ts := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 4, Workers: 1}})
	code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{
		Testcase: "T2",
		Method:   "ILP-II",
		Options:  server.SubmitOptions{Window: 32, R: 8, NetCapPS: 0.002},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var sub server.JobView
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, ts.URL, sub.ID, func(v server.JobView) bool { return v.State == "done" || v.State == "failed" })
	if final.State != "done" {
		t.Fatalf("capped job finished %s: %s", final.State, final.Error)
	}
	if r := final.Report; r == nil || r.Placed >= r.Requested {
		t.Fatalf("capped job report %+v, want placed < requested", r)
	}
}

// TestCancelRunningJob is the second acceptance path: DELETE a running job,
// observe the worker freed within the deadline, and check /metrics reflects
// a cancelled and a done job.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	factory := func(req *server.SubmitRequest) (jobqueue.Task, error) {
		if req.Method == "block" {
			return func(ctx context.Context, setPhase func(string)) (any, error) {
				setPhase("solve")
				started <- struct{}{}
				<-ctx.Done()
				return nil, ctx.Err()
			}, nil
		}
		return func(ctx context.Context, setPhase func(string)) (any, error) {
			return "quick", nil
		}, nil
	}
	_, ts := startServer(t, server.Config{
		Queue:       jobqueue.Config{Capacity: 4, Workers: 1},
		TaskFactory: factory,
	})

	code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{Method: "block"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var sub server.JobView
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	running := pollJob(t, ts.URL, sub.ID, func(v server.JobView) bool { return v.State == "running" })
	if running.Phase != "solve" {
		t.Fatalf("running phase = %q, want solve", running.Phase)
	}

	if code, data := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil); code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", code, data)
	}
	cancelled := pollJob(t, ts.URL, sub.ID, func(v server.JobView) bool { return v.State == "cancelled" })
	if cancelled.Error == "" {
		t.Fatal("cancelled job has empty error")
	}

	// Worker freed: a follow-up job completes.
	code, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{Method: "quick"})
	if code != http.StatusAccepted {
		t.Fatalf("submit follow-up: %d %s", code, data)
	}
	var next server.JobView
	if err := json.Unmarshal(data, &next); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, next.ID, func(v server.JobView) bool { return v.State == "done" })

	// Cancelling a finished job conflicts.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+next.ID, nil); code != http.StatusConflict {
		t.Fatalf("DELETE finished job: %d, want 409", code)
	}

	code, metrics := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		`pilfilld_jobs_finished_total{state="cancelled"} 1`,
		`pilfilld_jobs_finished_total{state="done"} 1`,
		"pilfilld_queue_depth 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestBackpressure429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	factory := func(req *server.SubmitRequest) (jobqueue.Task, error) {
		return func(ctx context.Context, setPhase func(string)) (any, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}, nil
	}
	_, ts := startServer(t, server.Config{
		Queue:       jobqueue.Config{Capacity: 1, Workers: 1},
		TaskFactory: factory,
	})
	defer close(release)

	if code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{Method: "x"}); code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, data)
	}
	<-started // worker busy, buffer empty
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{Method: "x"}); code != http.StatusAccepted {
		t.Fatalf("second submit should land in the buffer: %d", code)
	}
	code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{Method: "x"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d %s, want 429", code, data)
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body: %s", data)
	}

	code, metrics := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK || !strings.Contains(string(metrics), "pilfilld_jobs_rejected_total 1") {
		t.Fatalf("metrics after rejection:\n%s", metrics)
	}
}

func TestValidationAndNotFound(t *testing.T) {
	_, ts := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 2, Workers: 1}})

	cases := []server.SubmitRequest{
		{Method: "Greedy"},                           // neither testcase nor def
		{Testcase: "T1", DEF: "x", Method: "Greedy"}, // both
		{Testcase: "T9", Method: "Greedy"},           // bad testcase
		{Testcase: "T1", Method: "Sorcery"},          // bad method
		{Testcase: "T1", Method: "Greedy", Options: server.SubmitOptions{SlackDef: 7}}, // bad slackdef
		{Testcase: "T1", Method: "Greedy", Options: server.SubmitOptions{Window: -32}}, // negative window
		{Testcase: "T1", Method: "Greedy", Options: server.SubmitOptions{R: -4}},       // negative r
	}
	for i, req := range cases {
		if code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req); code != http.StatusBadRequest {
			t.Errorf("case %d: %d %s, want 400", i, code, data)
		}
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-99999999", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/job-99999999", nil); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: %d, want 200", code)
	}
}

// TestRegionValidation posts region job bodies to a worker: a well-formed
// one is accepted, and each variant carrying a negative budget entry,
// offset or owned-rect corner gets 400 before it is queued. A negative
// budget entry would read as 0 and a negative offset would shift fills to
// negative chip columns, so neither may run.
func TestRegionValidation(t *testing.T) {
	_, ts := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 8, Workers: 1}})
	valid := func() server.SubmitRequest {
		return server.SubmitRequest{DEF: "DESIGN x ;", Method: "greedy", Region: &server.RegionSpec{
			ID: "r1x1-0-0", WindowNM: 12800, R: 4,
			RuleFeatureNM: 150, RuleGapNM: 50, RuleBufferNM: 150,
			TileOffI: 2, ColOff: 40, I0: 2, J0: 0, I1: 3, J1: 2, Budget: []int{3, 4},
		}}
	}
	if code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", valid()); code != http.StatusAccepted {
		t.Fatalf("well-formed region: %d %s, want 202", code, data)
	}
	for _, tc := range []struct {
		name string
		edit func(*server.RegionSpec)
	}{
		{"negative budget", func(r *server.RegionSpec) { r.Budget[1] = -1 }},
		{"negative col_off", func(r *server.RegionSpec) { r.ColOff = -40 }},
		{"negative row_off", func(r *server.RegionSpec) { r.RowOff = -1 }},
		{"negative tile_off_i", func(r *server.RegionSpec) { r.TileOffI = -2 }},
		{"negative tile_off_j", func(r *server.RegionSpec) { r.TileOffJ = -1 }},
		{"negative i0", func(r *server.RegionSpec) { r.I0, r.I1 = -1, 0 }},
		{"short budget", func(r *server.RegionSpec) { r.Budget = r.Budget[:1] }},
	} {
		req := valid()
		tc.edit(req.Region)
		if code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, code, data)
		}
	}
}

func TestDrainRejectsAndHealthzFlips(t *testing.T) {
	s, ts := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 2, Workers: 1}})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
	code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{Testcase: "T1", Method: "Greedy"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %s, want 503", code, data)
	}
}

// TestListEndpoint exercises GET /v1/jobs summaries.
func TestListEndpoint(t *testing.T) {
	factory := func(req *server.SubmitRequest) (jobqueue.Task, error) {
		return func(ctx context.Context, setPhase func(string)) (any, error) {
			return nil, errors.New("synthetic failure")
		}, nil
	}
	_, ts := startServer(t, server.Config{
		Queue:       jobqueue.Config{Capacity: 4, Workers: 1},
		TaskFactory: factory,
	})
	code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{Method: "x"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	var sub server.JobView
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, sub.ID, func(v server.JobView) bool { return v.State == "failed" })

	code, data = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list server.ListResponse
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID || list.Jobs[0].State != "failed" {
		t.Fatalf("list = %s", data)
	}
	if list.Jobs[0].Error == "" {
		t.Fatal("failed job in list has no error")
	}
}

// TestSolveHistogramRecorded checks a done pilfill job lands in the solver
// histograms.
func TestSolveHistogramRecorded(t *testing.T) {
	_, ts := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 2, Workers: 1}})

	code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{
		Testcase: "T2", Method: "Greedy", Options: server.SubmitOptions{Window: 32, R: 4, Seed: 1},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var sub server.JobView
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, sub.ID, func(v server.JobView) bool { return v.State == "done" })

	_, metrics := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	for _, want := range []string{
		"pilfilld_solve_cpu_seconds_count 1",
		"pilfilld_solve_wall_seconds_count 1",
		fmt.Sprintf("pilfilld_jobs_submitted_total 1"),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestGroundedILPIJobFails: an ILP-I job with grounded fill fails with the
// engine's error instead of reporting the floating-fill answer.
func TestGroundedILPIJobFails(t *testing.T) {
	_, ts := startServer(t, server.Config{Queue: jobqueue.Config{Capacity: 4, Workers: 1}})
	code, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", server.SubmitRequest{
		Testcase: "T1",
		Method:   "ILP-I",
		Options:  server.SubmitOptions{Window: 32, R: 4, Seed: 1, Grounded: true},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var sub server.JobView
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, ts.URL, sub.ID, func(v server.JobView) bool { return v.State == "done" || v.State == "failed" })
	if final.State != "failed" || !strings.Contains(final.Error, core.ErrGroundedILPI.Error()) {
		t.Fatalf("job finished %s with error %q, want failed with %q", final.State, final.Error, core.ErrGroundedILPI)
	}
}
