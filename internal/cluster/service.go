// service.go is pilfill-coord's serve mode: a small HTTP layer that accepts
// whole-chip jobs, runs them through the Coordinator on a bounded job queue,
// and exposes their state. Chip jobs are durable the same way worker jobs
// are, through the same jobqueue.Queue.OpenLog: keyed submissions are
// WAL-logged (chips.wal, next to the coordinator's regions.wal) and
// unfinished ones are resubmitted on restart — where they pick their
// finished regions back up from the region WAL and re-scatter only the
// rest. Submit, list, get and cancel answer through pilfilld's code
// (server.SubmitStatus, ListPage, Lookup, Cancel), so their status codes are
// the same.
//
//	POST   /v1/chips               submit a chip job       -> 202 ChipView (200 on key dedupe)
//	GET    /v1/chips               list jobs               -> 200 ChipListResponse (?limit=, ?after=)
//	GET    /v1/chips/{id}          job state + report      -> 200 ChipView
//	DELETE /v1/chips/{id}          cancel                  -> 200 ChipView (409 if finished)
//	GET    /v1/chips/{id}/progress live aggregated progress-> 200 chip progress
//	GET    /v1/chips/{id}/events   progress stream (SSE; ends with a terminal event)
//	GET    /v1/chips/{id}/trace    merged multi-process Chrome trace (collect_trace chips)
//	GET    /statusz                cluster status page (HTML; ?format=json)
//	GET    /healthz                liveness                -> 200 while serving
//	GET    /readyz                 routing readiness       -> 503 once draining starts
//	GET    /metrics                Prometheus exposition (coordinator + queue families)
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
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
	server.JobState
	Key    string        `json:"key,omitempty"`
	Report *MergedReport `json:"report,omitempty"`
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
	log   *slog.Logger
	reg   *obs.Registry
	mux   *http.ServeMux
	ready atomic.Bool

	mu   sync.Mutex
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
		runs:    make(map[string]*ChipRun),
		drainCh: make(chan struct{}),
	}
	s.ready.Store(true)
	qcfg := cfg.Queue
	if qcfg.Logger == nil {
		qcfg.Logger = cfg.Logger
	}
	s.q = jobqueue.New(qcfg)

	if cfg.DataDir != "" {
		if err := s.q.OpenLog(filepath.Join(cfg.DataDir, "chips.wal"), s.replay); err != nil {
			s.q.Shutdown(context.Background())
			return nil, err
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/chips", server.LimitBody(cfg.MaxBodyBytes, s.handleSubmit))
	mux.HandleFunc("GET /v1/chips", s.handleList)
	mux.HandleFunc("GET /v1/chips/{id}", func(w http.ResponseWriter, r *http.Request) {
		if snap, ok := server.Lookup(w, r, s.q); ok {
			server.WriteJSON(w, http.StatusOK, s.viewOf(snap))
		}
	})
	mux.HandleFunc("DELETE /v1/chips/{id}", func(w http.ResponseWriter, r *http.Request) {
		if snap, ok := server.Cancel(w, r, s.q); ok {
			server.WriteJSON(w, http.StatusOK, s.viewOf(snap))
		}
	})
	mux.HandleFunc("GET /v1/chips/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/chips/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/chips/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { server.WriteStatus(w, !s.q.Draining()) })
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { server.WriteStatus(w, s.ready.Load() && !s.q.Draining()) })
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

// Shutdown drains the chip queue, which closes its WAL; open event streams
// are released first.
func (s *Service) Shutdown(ctx context.Context) error {
	s.SetReady(false)
	return s.q.Shutdown(ctx)
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

// runOf returns the ChipRun for a job ID, nil when unknown.
func (s *Service) runOf(id string) *ChipRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// replay resubmits one logged chip request a previous process accepted but
// never finished; an error marks it done (see jobqueue.Queue.OpenLog).
func (s *Service) replay(key string, payload json.RawMessage) error {
	req, err := decodeChip(bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Key = key
	_, _, err = s.submit(req, "")
	return err
}

// decodeChip parses a POST /v1/chips body strictly and validates its job
// cheaply, so a defective submission fails with 400, not as a Failed job
// after the whole budget has run.
func decodeChip(r io.Reader) (*ChipSubmitRequest, error) {
	var req ChipSubmitRequest
	if err := server.DecodeStrict(r, &req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if err := req.Job.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// submit queues a chip request under its key, logging the request as its
// payload, and indexes the new job's ChipRun.
func (s *Service) submit(req *ChipSubmitRequest, trace string) (jobqueue.Snapshot, bool, error) {
	run := NewChipRun(trace, req.Job.CollectTrace)
	snap, deduped, err := s.q.SubmitKeyed(s.chipTask(req.Job, run), jobqueue.SubmitOptions{Key: req.Key, Trace: run.TraceID}, req)
	if err == nil && !deduped {
		s.mu.Lock()
		s.runs[snap.ID] = run
		s.mu.Unlock()
		if s.log != nil {
			s.log.Info("chip job accepted", "id", snap.ID, "key", req.Key, "method", req.Job.Method, "trace", run.TraceID)
		}
	}
	return snap, deduped, err
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeChip(r.Body)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap, deduped, err := s.submit(req, r.Header.Get("X-Request-ID"))
	if status, ok := server.SubmitStatus(w, deduped, err); ok {
		server.WriteJSON(w, status, s.viewOf(snap))
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	snaps, next, ok := server.ListPage(w, r, s.q)
	if !ok {
		return
	}
	resp := ChipListResponse{Chips: make([]ChipView, 0, len(snaps)), NextAfter: next}
	for _, snap := range snaps {
		resp.Chips = append(resp.Chips, s.viewOf(snap))
	}
	server.WriteJSON(w, http.StatusOK, resp)
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
	if snap, ok := server.Lookup(w, r, s.q); ok {
		server.WriteJSON(w, http.StatusOK, s.progressView(snap))
	}
}

// handleEvents streams progress snapshots as server-sent events until the
// chip reaches a terminal state ("end" event) or the service drains
// ("shutdown" event) — the stream never outlives readiness, so a watching
// client cannot wedge a SIGTERM.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	snap, ok := server.Lookup(w, r, s.q)
	if !ok {
		return
	}
	id := snap.ID
	fl, ok := w.(http.Flusher)
	if !ok {
		server.WriteError(w, http.StatusInternalServerError, "streaming unsupported")
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
		if snap.State.Terminal() {
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
	snap, ok := server.Lookup(w, r, s.q)
	if !ok {
		return
	}
	id := snap.ID
	run := s.runOf(id)
	if run == nil || !run.CollectsTraces() {
		server.WriteError(w, http.StatusNotFound, "chip did not collect traces (set job.collect_trace)")
		return
	}
	if !snap.State.Terminal() {
		server.WriteError(w, http.StatusConflict, "trace is available once the chip finishes")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := run.WriteMergedTrace(w); err != nil {
		s.logWarn("merged trace write failed", "id", id, "err", err)
	}
}

func (s *Service) viewOf(snap jobqueue.Snapshot) ChipView {
	v := ChipView{JobState: server.StateOf(snap), Key: snap.Key}
	v.Report, _ = snap.Result.(*MergedReport) // set once done
	return v
}

func (s *Service) logWarn(msg string, args ...any) {
	if s.log != nil {
		s.log.Warn(msg, args...)
	}
}
