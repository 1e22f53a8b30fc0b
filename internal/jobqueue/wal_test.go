package jobqueue

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// reopenAfterAppend writes data as a log file, opens it, appends rec,
// closes it and opens it again. It returns both opens' records and the
// file's final bytes; ok is false when the first open fails.
func reopenAfterAppend(t *testing.T, data []byte, rec WALRecord) (first, second []WALRecord, file []byte, ok bool) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, first, err := OpenWAL(path)
	if err != nil {
		return nil, nil, nil, false
	}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, second, err = OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	w.Close()
	if file, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return first, second, file, true
}

// requireAppendSurvives fails unless reopening after one append returns the
// first open's records plus the appended one, and the file ends in '\n'.
func requireAppendSurvives(t *testing.T, data []byte) {
	t.Helper()
	rec := WALRecord{Type: WALAccept, Key: "b", Payload: json.RawMessage(`{"n":1}`)}
	first, second, file, ok := reopenAfterAppend(t, data, rec)
	if !ok {
		return
	}
	want := append(append([]WALRecord(nil), first...), rec)
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("reopened %d records %+v, want the first open's %d plus the appended one", len(second), second, len(first))
	}
	if !bytes.HasSuffix(file, []byte("\n")) {
		t.Fatalf("log does not end in a newline: %q", file)
	}
}

// TestWALNewlinelessTailIsNotARecord: a crash between a record's JSON and
// its newline leaves a tail that is not a record (Append never returned);
// it must be dropped, not counted, so the next append and every record
// before it survive the following open.
func TestWALNewlinelessTailIsNotARecord(t *testing.T) {
	for _, data := range []string{
		`{"type":"accept","key":"a"}`,
		"{\"type\":\"accept\",\"key\":\"a\"}\n{\"type\":\"done\",\"key\":\"a\"}",
		"{\"type\":\"accept\",\"key\":\"a\"}\r\n",
		"{\"type\":\"accept\",\"key\":\"a\"}\n{\"type\":\"do",
	} {
		requireAppendSurvives(t, []byte(data))
	}
	first, _, _, _ := reopenAfterAppend(t, []byte(`{"type":"accept","key":"a"}`), WALRecord{Type: WALDone, Key: "a"})
	if len(first) != 0 {
		t.Fatalf("newline-less tail replayed as %+v", first)
	}
}

// FuzzOpenWAL opens arbitrary log bytes, appends one record and reopens:
// nothing panics, the reopen returns the first open's records plus the
// appended one, and the file ends in '\n'.
func FuzzOpenWAL(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("{\"type\":\"accept\",\"key\":\"a\",\"payload\":{\"x\":1}}\n"))
	f.Add([]byte(`{"type":"accept","key":"a"}`))
	f.Add([]byte("{\"type\":\"accept\",\"key\":\"a\"}\n{\"type\":\"done\",\"key\":\"a\"}\n{\"ty"))
	f.Add([]byte("null\n\n{}\n"))
	f.Add([]byte("{\"type\":\"accept\",\"key\":\"a\"}\x00{\"type\":\"accept\",\"key\":\"b\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		requireAppendSurvives(t, data)
	})
}
