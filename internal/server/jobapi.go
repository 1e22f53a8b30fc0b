// jobapi.go holds the HTTP answers every queue-backed API shares: pilfilld's
// /v1/jobs and pilfill-coord's /v1/chips both decode, submit, list, look up
// and cancel through these, so a queue outcome maps to one status code
// whichever daemon reports it. Each daemon writes its own job view.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"pilfill/internal/jobqueue"
)

// DecodeStrict decodes one JSON request body into v. Unknown fields are an
// error, so a misspelled or retired option fails loudly instead of silently
// taking its default.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteJSON writes v as the JSON body of a response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes an ErrorResponse with the given status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// LimitBody bounds the request body h reads to limit bytes.
func LimitBody(limit int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		h(w, r)
	}
}

// WriteStatus answers a liveness or readiness probe: 200 {"status":"ok"}
// when ok, 503 {"status":"draining"} otherwise.
func WriteStatus(w http.ResponseWriter, ok bool) {
	if !ok {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SubmitStatus answers a failed SubmitKeyed — 429 with Retry-After when the
// queue is full, 503 while it drains, 500 otherwise — and returns ok false;
// after a successful one it returns the status to answer the job's view
// with: 200 when the key deduped onto an existing job, 202 for a new one.
func SubmitStatus(w http.ResponseWriter, deduped bool, err error) (status int, ok bool) {
	switch {
	case errors.Is(err, jobqueue.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "queue full, retry later")
	case errors.Is(err, jobqueue.ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "%v", err)
	case deduped:
		return http.StatusOK, true
	default:
		return http.StatusAccepted, true
	}
	return 0, false
}

// ListPage returns the page of q's submission-ordered listing that the
// request's ?limit= and ?after= select, and the cursor of the next page. A
// bad limit is answered with 400 and ok false.
func ListPage(w http.ResponseWriter, r *http.Request, q *jobqueue.Queue) (snaps []jobqueue.Snapshot, next string, ok bool) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "bad limit %q", v)
			return nil, "", false
		}
		limit = n
	}
	snaps, next = q.ListPage(r.URL.Query().Get("after"), limit)
	return snaps, next, true
}

// Lookup returns the job the request's {id} names. An unknown id is answered
// with 404 and ok false.
func Lookup(w http.ResponseWriter, r *http.Request, q *jobqueue.Queue) (jobqueue.Snapshot, bool) {
	id := r.PathValue("id")
	snap, err := q.Get(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, "no job %q", id)
		return snap, false
	}
	return snap, true
}

// Cancel cancels the job the request's {id} names and returns its snapshot.
// An unknown id is answered with 404 and a finished job with 409, both with
// ok false.
func Cancel(w http.ResponseWriter, r *http.Request, q *jobqueue.Queue) (jobqueue.Snapshot, bool) {
	id := r.PathValue("id")
	snap, err := q.Cancel(id)
	switch {
	case errors.Is(err, jobqueue.ErrNotFound):
		WriteError(w, http.StatusNotFound, "no job %q", id)
	case errors.Is(err, jobqueue.ErrFinished):
		WriteError(w, http.StatusConflict, "job %q already %s", id, snap.State)
	default:
		return snap, true
	}
	return snap, false
}
