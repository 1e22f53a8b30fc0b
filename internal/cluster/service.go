// service.go is pilfill-coord's serve mode: a small HTTP layer that accepts
// whole-chip jobs, runs them through the Coordinator on a bounded job queue,
// and exposes their state. Chip jobs are durable the same way worker jobs
// are: keyed submissions are WAL-logged (chips.wal, next to the
// coordinator's regions.wal) and unfinished ones are resubmitted on restart
// — where they pick their finished regions back up from the region WAL and
// re-scatter only the rest.
//
//	POST   /v1/chips               submit a chip job       -> 202 ChipView (200 on key dedupe)
//	GET    /v1/chips               list jobs               -> 200 ChipListResponse (?limit=, ?after=)
//	GET    /v1/chips/{id}          job state + report      -> 200 ChipView
//	DELETE /v1/chips/{id}          cancel                  -> 200 ChipView
//	GET    /v1/chips/{id}/progress live aggregated progress-> 200 chip progress
//	GET    /v1/chips/{id}/events   progress stream (SSE; ends with a terminal event)
//	GET    /v1/chips/{id}/trace    merged multi-process Chrome trace (collect_trace chips)
//	GET    /statusz                cluster status page (HTML; ?format=json)
//	GET    /healthz                liveness                -> 200 while serving
//	GET    /readyz                 routing readiness       -> 503 once draining starts
//	GET    /metrics                Prometheus exposition (coordinator + queue families)
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/obs"
	"pilfill/internal/server"
)

// ChipSubmitRequest is the body of POST /v1/chips.
type ChipSubmitRequest struct {
	// Key is an optional idempotency key; resubmitting a known key returns
	// the existing chip job, and keyed jobs survive a coordinator restart.
	Key string  `json:"key,omitempty"`
	Job ChipJob `json:"job"`
}

// ChipView is the wire form of one chip job.
type ChipView struct {
	ID        string        `json:"id"`
	Key       string        `json:"key,omitempty"`
	State     string        `json:"state"`
	Phase     string        `json:"phase,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Error     string        `json:"error,omitempty"`
	Report    *MergedReport `json:"report,omitempty"`
}

// ChipListResponse is the response of GET /v1/chips; NextAfter is the
// pagination cursor when ?limit= truncated the listing.
type ChipListResponse struct {
	Chips     []ChipView `json:"chips"`
	NextAfter string     `json:"next_after,omitempty"`
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Coordinator runs the chips (required).
	Coordinator *Coordinator
	// Queue bounds concurrently running chips and the pending buffer.
	Queue jobqueue.Config
	// DataDir, when set, holds the chip WAL (chips.wal).
	DataDir string
	// MaxBodyBytes bounds request bodies; default 64 MiB.
	MaxBodyBytes int64
	// Logger receives request/lifecycle logs; nil disables.
	Logger *slog.Logger
	// Registry serves /metrics; usually the same registry the Coordinator
	// was built with, so one scrape covers both. Default: a new registry.
	Registry *obs.Registry
}

// Service is the coordinator HTTP front end. Create with NewService; it
// implements http.Handler.
type Service struct {
	coord *Coordinator
	q     *jobqueue.Queue
	wal   *jobqueue.WAL
	log   *slog.Logger
	reg   *obs.Registry
	mux   *http.ServeMux
	ready atomic.Bool

	mu   sync.Mutex
	keys map[string]string   // job id -> submission key, for the done record
	runs map[string]*ChipRun // job id -> live/terminal observability state

	// drainCh is closed when the service stops being ready, so open SSE
	// streams can end with a terminal event instead of starving the drain.
	drainMu sync.Mutex
	drainCh chan struct{}
}

// NewService builds the service, replaying the chip WAL when DataDir is set.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: service needs a coordinator")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := &Service{
		coord:   cfg.Coordinator,
		log:     cfg.Logger,
		reg:     cfg.Registry,
		keys:    make(map[string]string),
		runs:    make(map[string]*ChipRun),
		drainCh: make(chan struct{}),
	}
	s.ready.Store(true)
	qcfg := cfg.Queue
	qcfg.OnFinish = s.chipFinished
	if qcfg.Logger == nil {
		qcfg.Logger = cfg.Logger
	}
	s.q = jobqueue.New(qcfg)

	if cfg.DataDir != "" {
		wal, recs, err := jobqueue.OpenWAL(filepath.Join(cfg.DataDir, "chips.wal"))
		if err != nil {
			s.q.Shutdown(context.Background())
			return nil, err
		}
		s.wal = wal
		if err := s.replay(recs); err != nil {
			s.q.Shutdown(context.Background())
			return nil, err
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/chips", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, cfg.MaxBodyBytes)
		s.handleSubmit(w, r)
	})
	mux.HandleFunc("GET /v1/chips", s.handleList)
	mux.HandleFunc("GET /v1/chips/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/chips/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/chips/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/chips/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/chips/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.q.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{Error: "draining"})
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() || s.q.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{Error: "not ready"})
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg.Write(w)
	})
	s.mux = mux
	return s, nil
}

func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetReady flips /readyz; pilfill-coord calls SetReady(false) at SIGTERM
// before draining, mirroring pilfilld. Going not-ready also releases every
// open progress stream with a terminal "shutdown" event — an SSE client
// must not be what keeps a draining coordinator alive.
func (s *Service) SetReady(ready bool) {
	s.ready.Store(ready)
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	select {
	case <-s.drainCh:
		if ready {
			s.drainCh = make(chan struct{})
		}
	default:
		if !ready {
			close(s.drainCh)
		}
	}
}

// drain returns the channel closed when the service stops being ready.
func (s *Service) drain() <-chan struct{} {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.drainCh
}

// Shutdown drains the chip queue and closes the WAL; open event streams are
// released first.
func (s *Service) Shutdown(ctx context.Context) error {
	s.SetReady(false)
	err := s.q.Shutdown(ctx)
	if werr := s.wal.Close(); err == nil {
		err = werr
	}
	return err
}

// chipTask wraps one chip job for the queue, feeding its ChipRun.
func (s *Service) chipTask(job ChipJob, run *ChipRun) jobqueue.Task {
	return func(ctx context.Context, setPhase func(string)) (any, error) {
		setPhase("prepare")
		run.setState("preparing")
		prep, err := PrepareChip(job)
		if err != nil {
			run.setState("failed")
			return nil, err
		}
		setPhase("scatter")
		return s.coord.RunChipObserved(ctx, prep, run)
	}
}

// registerRun indexes a chip's ChipRun by job ID and sweeps entries the
// queue no longer remembers, so the map tracks queue retention.
func (s *Service) registerRun(id string, run *ChipRun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for old := range s.runs {
		if _, err := s.q.Get(old); err != nil {
			delete(s.runs, old)
		}
	}
	s.runs[id] = run
}

// runOf returns the ChipRun for a job ID, nil when unknown.
func (s *Service) runOf(id string) *ChipRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// chipFinished is the queue's OnFinish hook: the WAL done record. Cancelled
// chips stay unfinished in the log so a restart resubmits them (the region
// WAL makes the rerun cheap).
func (s *Service) chipFinished(snap jobqueue.Snapshot) {
	s.mu.Lock()
	key := s.keys[snap.ID]
	delete(s.keys, snap.ID)
	s.mu.Unlock()
	if key == "" || snap.State == jobqueue.Cancelled {
		return
	}
	if err := s.wal.Append(jobqueue.WALRecord{Type: jobqueue.WALDone, Key: key}); err != nil {
		s.logWarn("chip wal done append failed", "key", key, "err", err)
	}
}

// replay resubmits every accepted-but-unfinished chip from the WAL.
func (s *Service) replay(recs []jobqueue.WALRecord) error {
	for _, rec := range jobqueue.WALUnfinished(recs) {
		var req ChipSubmitRequest
		if err := json.Unmarshal(rec.Payload, &req); err != nil {
			// A payload this process can no longer parse would wedge every
			// startup; mark it done and move on.
			s.logWarn("dropping unreadable chip wal record", "key", rec.Key, "err", err)
			if err := s.wal.Append(jobqueue.WALRecord{Type: jobqueue.WALDone, Key: rec.Key}); err != nil {
				return err
			}
			continue
		}
		run := NewChipRun("", req.Job.CollectTrace)
		snap, deduped, err := s.q.SubmitKeyed(s.chipTask(req.Job, run), jobqueue.SubmitOptions{Key: rec.Key, Trace: run.TraceID})
		if err != nil {
			return fmt.Errorf("cluster: replay chip %s: %w", rec.Key, err)
		}
		if !deduped {
			s.mu.Lock()
			s.keys[snap.ID] = rec.Key
			s.runs[snap.ID] = run
			s.mu.Unlock()
			s.logInfo("replayed chip job", "key", rec.Key, "id", snap.ID, "trace", run.TraceID)
		}
	}
	return nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req ChipSubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	// Validate cheaply up front so defective submissions fail with 400, not
	// a Failed job after the whole budget has run.
	if err := req.Job.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: err.Error()})
		return
	}

	run := NewChipRun(r.Header.Get("X-Request-ID"), req.Job.CollectTrace)
	snap, deduped, err := s.q.SubmitKeyed(s.chipTask(req.Job, run), jobqueue.SubmitOptions{Key: req.Key, Trace: run.TraceID})
	switch {
	case deduped:
		writeJSON(w, http.StatusOK, s.viewOf(snap))
		return
	case err == jobqueue.ErrQueueFull:
		writeJSON(w, http.StatusTooManyRequests, server.ErrorResponse{Error: "queue full, retry later"})
		return
	case err == jobqueue.ErrDraining:
		writeJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{Error: "coordinator is draining"})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, server.ErrorResponse{Error: err.Error()})
		return
	}
	s.registerRun(snap.ID, run)
	if req.Key != "" {
		s.mu.Lock()
		s.keys[snap.ID] = req.Key
		s.mu.Unlock()
		payload, merr := json.Marshal(req)
		if merr == nil {
			merr = s.wal.Append(jobqueue.WALRecord{Type: jobqueue.WALAccept, Key: req.Key, Payload: payload})
		}
		if merr != nil {
			s.logWarn("chip wal accept append failed", "key", req.Key, "err", merr)
		}
	}
	s.logInfo("chip job accepted", "id", snap.ID, "key", req.Key,
		"method", req.Job.Method, "trace", run.TraceID)
	writeJSON(w, http.StatusAccepted, s.viewOf(snap))
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: fmt.Sprintf("bad limit %q", v)})
			return
		}
		limit = n
	}
	snaps, next := s.q.ListPage(r.URL.Query().Get("after"), limit)
	resp := ChipListResponse{Chips: make([]ChipView, 0, len(snaps)), NextAfter: next}
	for _, snap := range snaps {
		resp.Chips = append(resp.Chips, s.viewOf(snap))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, server.ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.viewOf(snap))
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	snap, err := s.q.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, server.ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.viewOf(snap))
}

// chipProgressView is the wire form of GET /v1/chips/{id}/progress and each
// SSE progress event: the queue's authoritative job state wrapped around the
// ChipRun's aggregated region view (absent before the run is registered).
type chipProgressView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Phase string `json:"phase,omitempty"`
	*ChipProgress
}

func (s *Service) progressView(snap jobqueue.Snapshot) chipProgressView {
	v := chipProgressView{ID: snap.ID, State: snap.State.String()}
	if snap.State == jobqueue.Running {
		v.Phase = snap.Phase
	}
	if run := s.runOf(snap.ID); run != nil {
		v.ChipProgress = run.Progress()
	}
	return v
}

func (s *Service) handleProgress(w http.ResponseWriter, r *http.Request) {
	snap, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, server.ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.progressView(snap))
}

// terminalChip reports whether a chip job state is final.
func terminalChip(st jobqueue.State) bool {
	return st == jobqueue.Done || st == jobqueue.Failed || st == jobqueue.Cancelled
}

// handleEvents streams progress snapshots as server-sent events until the
// chip reaches a terminal state ("end" event) or the service drains
// ("shutdown" event) — the stream never outlives readiness, so a watching
// client cannot wedge a SIGTERM.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.q.Get(id); err != nil {
		writeJSON(w, http.StatusNotFound, server.ErrorResponse{Error: err.Error()})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, server.ErrorResponse{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	drain := s.drain()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		snap, err := s.q.Get(id)
		if err != nil {
			fmt.Fprintf(w, "event: end\ndata: {\"state\":\"gone\"}\n\n")
			fl.Flush()
			return
		}
		data, _ := json.Marshal(s.progressView(snap))
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		if terminalChip(snap.State) {
			fmt.Fprintf(w, "event: end\ndata: {\"state\":%q}\n\n", snap.State.String())
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-drain:
			fmt.Fprintf(w, "event: shutdown\ndata: {\"state\":%q}\n\n", snap.State.String())
			fl.Flush()
			return
		case <-ticker.C:
		}
	}
}

// handleTrace serves the merged multi-process Chrome trace of a finished
// collect_trace chip.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.q.Get(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, server.ErrorResponse{Error: err.Error()})
		return
	}
	run := s.runOf(id)
	if run == nil || !run.CollectsTraces() {
		writeJSON(w, http.StatusNotFound, server.ErrorResponse{Error: "chip did not collect traces (set job.collect_trace)"})
		return
	}
	if !terminalChip(snap.State) {
		writeJSON(w, http.StatusConflict, server.ErrorResponse{Error: "trace is available once the chip finishes"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := run.WriteMergedTrace(w); err != nil {
		s.logWarn("merged trace write failed", "id", id, "err", err)
	}
}

func (s *Service) viewOf(snap jobqueue.Snapshot) ChipView {
	v := ChipView{
		ID:        snap.ID,
		Key:       snap.Key,
		State:     snap.State.String(),
		Submitted: snap.Submitted,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		v.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		v.Finished = &t
	}
	if snap.Err != nil {
		v.Error = snap.Err.Error()
	}
	switch snap.State {
	case jobqueue.Running:
		v.Phase = snap.Phase
	case jobqueue.Done:
		if rep, ok := snap.Result.(*MergedReport); ok {
			v.Report = rep
		}
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Service) logInfo(msg string, args ...any) {
	if s.log != nil {
		s.log.Info(msg, args...)
	}
}

func (s *Service) logWarn(msg string, args ...any) {
	if s.log != nil {
		s.log.Warn(msg, args...)
	}
}
