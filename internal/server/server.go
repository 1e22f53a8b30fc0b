// Package server exposes fill synthesis as an HTTP service: jobs are
// submitted to the bounded queue of internal/jobqueue, run the library's
// session/solve pipeline under a cancellable context, and report progress,
// results and Prometheus metrics.
//
// API:
//
//	POST   /v1/jobs       submit a job (DEF or named testcase + method, or a
//	                      sharded region job via "region"); 202 with the job
//	                      id, 200 when an idempotency key dedupes onto an
//	                      existing job, 429 when the queue is full or the
//	                      tenant (X-Tenant header) is over its rate or queue
//	                      share (with Retry-After), 503 while draining
//	GET    /v1/jobs       list jobs; ?limit= and ?after= page through the
//	                      submission-ordered listing
//	GET    /v1/jobs/{id}  job state, running phase, and the report when done
//	DELETE /v1/jobs/{id}  cancel a pending or running job (409 if finished)
//	GET    /healthz       200 "ok", 503 while draining (liveness)
//	GET    /readyz        200 "ok" only while accepting new work — flipped
//	                      off by SetReady before a drain so coordinators and
//	                      load balancers stop routing here (readiness)
//	GET    /metrics       Prometheus text exposition
//
// With Config.DataDir set, the queue logs keyed submissions to an
// append-only JSONL WAL (jobqueue.Queue.OpenLog) and unfinished ones are
// resubmitted on startup, so a restart does not lose accepted work (the
// idempotency keys make the replay safe).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pilfill"
	"pilfill/internal/jobqueue"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Queue configures the underlying job queue (capacity, workers, default
	// per-job timeout). The OnFinish hook is owned by the server's metrics
	// and must be left nil.
	Queue jobqueue.Config
	// MaxBodyBytes bounds the request body (inline DEF can be large);
	// default 64 MiB.
	MaxBodyBytes int64
	// TaskFactory translates a validated SubmitRequest into the task the
	// queue runs. Nil uses the real fill-synthesis pipeline; tests substitute
	// controllable tasks to exercise queue behavior deterministically.
	TaskFactory func(req *SubmitRequest) (jobqueue.Task, error)
	// Logger receives structured request and job-lifecycle logs (one Info
	// line per request with its id, method, path, status and duration; job
	// state transitions via the queue). Nil disables logging. When
	// Queue.Logger is nil it inherits this logger.
	Logger *slog.Logger
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ —
	// protect the port accordingly when enabling it.
	Pprof bool
	// Tenant enables per-tenant admission control on submissions, keyed by
	// the X-Tenant header (missing header = jobqueue.DefaultTenant). Nil
	// disables admission.
	Tenant *jobqueue.TenantConfig
	// DataDir, when non-empty, enables the durable-jobs WAL at
	// DataDir/jobs.wal: keyed submissions are logged on accept and marked on
	// completion, and unfinished ones are resubmitted when the server starts.
	DataDir string
}

// Server is the pilfilld HTTP handler. Create with New; it owns its queue.
type Server struct {
	q       *jobqueue.Queue
	mux     *http.ServeMux
	metrics *metrics
	factory func(req *SubmitRequest) (jobqueue.Task, error)
	logger  *slog.Logger
	adm     *jobqueue.TenantAdmission
	ready   atomic.Bool  // readiness; flipped off by SetReady before a drain
	nextReq atomic.Int64 // request-id counter

	mu      sync.Mutex
	methods map[string]string // job id -> method label, for JobView
	tenants map[string]string // job id -> admitted tenant, released on finish
}

// New builds the server, starts its queue workers, and — with a DataDir —
// replays unfinished keyed jobs from the WAL. The returned error is always a
// WAL problem (open, replay); a server without durability cannot fail.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	s := &Server{
		metrics: newMetrics(),
		factory: cfg.TaskFactory,
		logger:  cfg.Logger,
		methods: make(map[string]string),
		tenants: make(map[string]string),
	}
	s.ready.Store(true)
	if s.factory == nil {
		queueWorkers := cfg.Queue.Workers
		s.factory = func(req *SubmitRequest) (jobqueue.Task, error) {
			return defaultTask(req, queueWorkers, s.metrics.progressTiles)
		}
	}
	if cfg.Tenant != nil {
		s.adm = jobqueue.NewTenantAdmission(*cfg.Tenant)
		s.metrics.registerTenants(s.adm)
	}
	qcfg := cfg.Queue
	qcfg.OnFinish = s.jobFinished
	if qcfg.Logger == nil {
		qcfg.Logger = cfg.Logger
	}
	s.q = jobqueue.New(qcfg)

	if cfg.DataDir != "" {
		if err := s.q.OpenLog(filepath.Join(cfg.DataDir, "jobs.wal"), s.replay); err != nil {
			s.q.Shutdown(context.Background())
			return nil, err
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", LimitBody(cfg.MaxBodyBytes, s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { WriteStatus(w, !s.q.Draining()) })
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { WriteStatus(w, s.ready.Load() && !s.q.Draining()) })
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// jobFinished is the queue's OnFinish hook: metrics and tenant release.
func (s *Server) jobFinished(snap jobqueue.Snapshot) {
	s.metrics.jobFinished(snap)
	s.mu.Lock()
	tenant, admitted := s.tenants[snap.ID]
	delete(s.tenants, snap.ID)
	s.mu.Unlock()
	if admitted {
		s.adm.Release(tenant)
	}
}

// replay resubmits one logged request a previous process accepted but
// never finished; an error marks it done (see jobqueue.Queue.OpenLog).
func (s *Server) replay(key string, payload json.RawMessage) error {
	req, err := decodeSubmit(bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Key = key
	task, err := s.factory(req)
	if err != nil {
		return err
	}
	_, _, err = s.submit(req, task, "", "", false)
	return err
}

// submit queues req's task under req's key, logging req as its payload, and
// records the new job's method label and, when admitted, its tenant. The
// records are made under s.mu before jobFinished can read them, however
// fast the job finishes.
func (s *Server) submit(req *SubmitRequest, task jobqueue.Task, trace, tenant string, admitted bool) (jobqueue.Snapshot, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, deduped, err := s.q.SubmitKeyed(task, jobqueue.SubmitOptions{
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Key:     req.Key,
		Trace:   trace,
	}, req)
	if err == nil && !deduped {
		s.methods[snap.ID] = req.Method
		if admitted {
			s.tenants[snap.ID] = tenant
		}
	}
	return snap, deduped, err
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// ServeHTTP implements http.Handler. Every request is assigned an id
// (honoring an incoming X-Request-ID — the coordinator's trace-propagation
// channel) that is echoed in the response header, written back onto the
// request headers so handlers read one canonical value, and carried through
// the request log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = fmt.Sprintf("req-%08d", s.nextReq.Add(1))
		r.Header.Set("X-Request-ID", reqID)
	}
	w.Header().Set("X-Request-ID", reqID)
	if s.logger == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.logger.Info("request",
		"id", reqID, "method", r.Method, "path", r.URL.Path,
		"status", sw.status, "dur", time.Since(start))
}

// Shutdown drains the queue under ctx's deadline: new submissions are
// rejected with 503, running and queued jobs finish (or are cancelled when
// ctx expires). The HTTP listener itself is the caller's to close — keep it
// serving during the drain so clients can poll final job states.
func (s *Server) Shutdown(ctx context.Context) error { return s.q.Shutdown(ctx) }

// view is the wire form of a job, with the method recorded at submit.
func (s *Server) view(snap jobqueue.Snapshot) JobView {
	s.mu.Lock()
	v := JobView{JobState: StateOf(snap), Method: s.methods[snap.ID], TraceID: snap.Trace}
	s.mu.Unlock()
	if snap.State == jobqueue.Running {
		v.Progress = progressOf(snap)
	}
	v.Report, _ = snap.Result.(*ReportPayload) // set once done
	return v
}

// decodeSubmit parses a POST /v1/jobs body strictly (DecodeStrict).
func decodeSubmit(r io.Reader) (*SubmitRequest, error) {
	var req SubmitRequest
	if err := DecodeStrict(r, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(r.Body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	task, err := s.factory(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if res := s.adm.Admit(tenant); !res.OK {
		w.Header().Set("Retry-After", jobqueue.RetryAfterSeconds(res.RetryAfter))
		WriteError(w, http.StatusTooManyRequests, "tenant over %s limit, retry later", res.Reason)
		return
	}
	snap, deduped, err := s.submit(req, task, r.Header.Get("X-Request-ID"), tenant, s.adm != nil)
	if err != nil || deduped {
		// No new job entered the queue: the admitted slot is unused.
		s.adm.Release(tenant)
	}
	if status, ok := SubmitStatus(w, deduped, err); ok {
		WriteJSON(w, status, s.view(snap))
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	snaps, next, ok := ListPage(w, r, s.q)
	if !ok {
		return
	}
	resp := ListResponse{Jobs: make([]JobView, 0, len(snaps)), NextAfter: next}
	for _, snap := range snaps {
		v := s.view(snap)
		v.Report = nil // keep the listing light; fetch one job for the report
		resp.Jobs = append(resp.Jobs, v)
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if snap, ok := Lookup(w, r, s.q); ok {
		WriteJSON(w, http.StatusOK, s.view(snap))
	}
}

// handleProgress serves just the live progress snapshot — the polling-
// friendly subset of the job view the cluster coordinator forwards into its
// chip-level aggregation. An empty object means the job has not published
// progress yet (still pending, or a task without progress instrumentation).
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	snap, ok := Lookup(w, r, s.q)
	if !ok {
		return
	}
	pp := progressOf(snap)
	if pp == nil {
		pp = &ProgressPayload{Phase: snap.Phase}
	}
	WriteJSON(w, http.StatusOK, struct {
		ID    string `json:"id"`
		State string `json:"state"`
		*ProgressPayload
	}{ID: snap.ID, State: snap.State.String(), ProgressPayload: pp})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if snap, ok := Cancel(w, r, s.q); ok {
		WriteJSON(w, http.StatusOK, s.view(snap))
	}
}

// SetReady flips the /readyz readiness signal. pilfilld calls SetReady(false)
// at SIGTERM, before the queue drain starts, so routers see "not ready"
// while in-flight jobs are still finishing cleanly. Readiness is the routing
// signal, distinct from /healthz (liveness, which stays 200 until the queue
// drains), so a draining worker is taken out of rotation without being
// restarted.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.write(w, s.q.Stats()) // write errors mean a gone client
}

// EffectiveWorkers resolves a job's per-run tile-solver worker count so that
// concurrent jobs never oversubscribe the CPU: each of the queue's workers
// gets an equal share of GOMAXPROCS (at least 1), an unset request defaults
// to that share, and an explicit request is clamped to it. With one queue
// worker this is plain "default to all cores".
func EffectiveWorkers(requested, queueWorkers int) int {
	if queueWorkers < 1 {
		queueWorkers = 1
	}
	share := runtime.GOMAXPROCS(0) / queueWorkers
	if share < 1 {
		share = 1
	}
	if requested <= 0 || requested > share {
		return share
	}
	return requested
}

// defaultTask validates the request up-front (so bad submissions fail with
// 400 instead of a Failed job) and returns a task that loads the layout,
// prepares a session, and runs the method under the job's context.
// Cancellation between phases is checked explicitly; during the solve it
// propagates through Session.RunContext to the tile loops and ILP node
// loops.
func defaultTask(req *SubmitRequest, queueWorkers int, progressTiles *obs.Counter) (jobqueue.Task, error) {
	if req.Region != nil {
		return regionTask(req, queueWorkers, progressTiles)
	}
	m, ok := ParseMethod(req.Method)
	if !ok {
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
	if (req.Testcase == "") == (req.DEF == "") {
		return nil, errors.New("exactly one of testcase and def must be set")
	}
	if req.Testcase != "" {
		switch strings.ToUpper(req.Testcase) {
		case "T1", "T2":
		default:
			return nil, fmt.Errorf("unknown testcase %q (want T1 or T2)", req.Testcase)
		}
	}
	opts, err := req.Options.SessionOptions()
	if err != nil {
		return nil, err
	}
	opts.Workers = EffectiveWorkers(opts.Workers, queueWorkers)
	reqCopy := *req // detach from the handler's request lifetime

	return func(ctx context.Context, setPhase func(string)) (any, error) {
		tracker := newProgressTracker(func(v any) { jobqueue.PublishProgress(ctx, v) }, progressTiles)
		setPhase = tracker.wrapSetPhase(setPhase)
		setPhase("load")
		var l *layout.Layout
		var err error
		switch {
		case reqCopy.Testcase != "":
			switch strings.ToUpper(reqCopy.Testcase) {
			case "T1":
				l, err = pilfill.GenerateT1()
			case "T2":
				l, err = pilfill.GenerateT2()
			}
		case reqCopy.LEF != "":
			l, err = pilfill.LoadLEFDEF(strings.NewReader(reqCopy.LEF), strings.NewReader(reqCopy.DEF))
		default:
			l, err = pilfill.LoadDEF(strings.NewReader(reqCopy.DEF))
		}
		if err != nil {
			return nil, fmt.Errorf("load layout: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		setPhase("prepare")
		opts := opts
		opts.Trace = reqCopy.Options.tracer()
		opts.OnTile = tracker.onTile
		sess, err := pilfill.NewSession(l, opts)
		if err != nil {
			return nil, fmt.Errorf("prepare session: %w", err)
		}
		tracker.setTotal(len(sess.Instances))
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		setPhase("solve")
		rep, err := sess.RunContext(ctx, m)
		if err != nil {
			return nil, err
		}
		setPhase("report")
		payload := BuildReport(sess, rep)
		payload.Trace = opts.Trace.Dump("pilfilld")
		return payload, nil
	}, nil
}
