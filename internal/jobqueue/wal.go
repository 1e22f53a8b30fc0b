// wal.go is the durable-jobs primitive: an append-only JSONL write-ahead log
// of keyed work. An "accept" record is written when work is accepted and a
// "done" record when it reaches a state that need not be re-run; replaying
// the log on startup and resubmitting every accepted-but-not-done key (the
// keys dedupe, so replay is idempotent) means a SIGTERM or crash between the
// two records loses nothing. Queue.OpenLog is the one owner of that
// accept/done protocol, for pilfilld's jobs (jobs.wal) and the coordinator's
// chip jobs (chips.wal); the coordinator's region payload cache
// (regions.wal) appends its own records through this type directly.
package jobqueue

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// WAL record types.
const (
	// WALAccept records work accepted under a key; its payload is the one
	// SubmitKeyed was given, whatever the owner needs to rebuild the work.
	WALAccept = "accept"
	// WALDone marks a key's work complete — it will not be replayed.
	WALDone = "done"
)

// WALRecord is one JSONL line of the log.
type WALRecord struct {
	Type    string          `json:"type"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// WAL is an append-only JSONL log with fsync-per-append durability. Create
// with OpenWAL; a nil WAL ignores appends, so durability stays optional at
// the call sites.
type WAL struct {
	mu sync.Mutex
	f  *os.File
}

// OpenWAL opens (creating directories and the file as needed) the log at
// path and returns the records already present — the previous process
// incarnation's history, for replay. A record counts only once its newline
// is on disk, as Append returns only then: a trailing line without one, or
// any line that does not parse (a crash mid-append), is truncated away with
// everything after it; everything before it is kept.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobqueue: wal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobqueue: open wal: %w", err)
	}
	var recs []WALRecord
	valid := int64(0)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 256<<20) // inline DEF payloads are large
	sc.Split(scanTerminatedLines)
	for sc.Scan() {
		line := sc.Bytes()
		var rec WALRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail: keep what parsed, truncate the rest
		}
		recs = append(recs, rec)
		valid += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobqueue: read wal: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobqueue: truncate torn wal tail: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobqueue: seek wal: %w", err)
	}
	return &WAL{f: f}, recs, nil
}

// scanTerminatedLines is a bufio.SplitFunc yielding each '\n'-terminated
// line without its newline and nothing for an unterminated tail, so every
// token advances the reader by exactly its length plus one.
func scanTerminatedLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	return 0, nil, nil
}

// Append durably writes one record: the line is written and fsynced before
// returning. A nil WAL discards the record.
func (w *WAL) Append(rec WALRecord) error {
	if w == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobqueue: marshal wal record: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("jobqueue: append wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobqueue: sync wal: %w", err)
	}
	return nil
}

// Close closes the underlying file. A nil WAL is a no-op.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// WALUnfinished filters a replayed log down to the accept records whose key
// has no done record after them, preserving accept order. A key re-accepted
// after a done (a later, distinct incarnation of the work) is kept.
func WALUnfinished(recs []WALRecord) []WALRecord {
	lastDone := make(map[string]int) // key -> 1 + index of its last done
	for i, rec := range recs {
		if rec.Type == WALDone {
			lastDone[rec.Key] = i + 1
		}
	}
	var open []WALRecord
	for i, rec := range recs {
		if rec.Type == WALAccept && lastDone[rec.Key] <= i {
			open = append(open, rec)
		}
	}
	return open
}
