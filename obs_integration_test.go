package pilfill

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"

	"pilfill/internal/obs"
)

// TestSessionTraceSpans runs a real session with tracing on and checks the
// recorded hierarchy end to end: a prep span with analyze/extract children,
// a run span per Run call, and under it one tile span per instance, each
// wrapping a solve span. This is the library-level guarantee behind the
// `pilfill -trace` CLI flag.
func TestSessionTraceSpans(t *testing.T) {
	l, err := GenerateT1()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(0)
	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, slog.LevelDebug, "text")
	// Progress is reported only by tiles that reach branch-and-bound. The
	// 1e-14 s net cap makes three T1 tiles' repaired incumbents fail the
	// hull certificate (every uncapped tile passes it); the node limit keeps
	// their searches short.
	s, err := NewSession(l, Options{
		Window: 51200, R: 4, Rule: DefaultRuleT1T2(), Seed: 3,
		NetCap: 1e-14, ILPNodeLimit: 200,
		Workers:           2,
		Trace:             tr,
		Logger:            logger,
		SlowTileThreshold: time.Nanosecond, // everything is "slow": exercise the warning
		ProgressNodes:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ILPII); err != nil {
		t.Fatal(err)
	}

	recs := tr.Snapshot()
	byID := map[obs.SpanID]obs.SpanRec{}
	count := map[string]int{}
	for _, r := range recs {
		if !r.Instant {
			byID[r.ID] = r
		}
		count[r.Name]++
	}
	for _, name := range []string{"prep", "analyze", "extract", "build", "run", "tile", "solve"} {
		if count[name] == 0 {
			t.Errorf("no %q span recorded", name)
		}
	}
	if count["tile"] != len(s.Instances) || count["solve"] != count["tile"] {
		t.Errorf("got %d tile / %d solve spans for %d instances",
			count["tile"], count["solve"], len(s.Instances))
	}
	if count["progress"] == 0 {
		t.Error("no ILP progress instants with ProgressNodes=1")
	}

	// Structural nesting: each span's parent exists (roots aside), with the
	// expected name, and contains the child's interval.
	wantParent := map[string]string{
		"analyze": "prep", "extract": "prep", "build": "prep",
		"tile": "run", "solve": "tile",
	}
	for _, r := range recs {
		if r.Instant {
			continue
		}
		pname, ok := wantParent[r.Name]
		if !ok {
			if r.Parent != 0 {
				t.Errorf("root span %q has parent %d", r.Name, r.Parent)
			}
			continue
		}
		p, ok := byID[r.Parent]
		if !ok {
			t.Errorf("%q span's parent %d not recorded", r.Name, r.Parent)
			continue
		}
		if p.Name != pname {
			t.Errorf("%q span nested under %q, want %q", r.Name, p.Name, pname)
		}
		// Time containment holds for everything except "build", which is
		// logically part of prep but runs later, in the Instances call.
		if r.Name == "build" {
			continue
		}
		if r.Start < p.Start || r.Start+r.Dur > p.Start+p.Dur+time.Millisecond {
			t.Errorf("%q span [%v, %v] escapes parent %q [%v, %v]",
				r.Name, r.Start, r.Start+r.Dur, p.Name, p.Start, p.Start+p.Dur)
		}
	}

	// The Chrome export of that trace must be valid trace-event JSON.
	var out bytes.Buffer
	if err := tr.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(recs) {
		t.Errorf("exported %d events for %d records", len(doc.TraceEvents), len(recs))
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "slow tile") {
		t.Error("no slow-tile warning with a 1ns threshold")
	}
	if !strings.Contains(logs, "ilp progress") {
		t.Error("no ILP progress debug logs")
	}
}

// TestSessionTracingOffIsIdentical: the same session without observability
// produces bit-identical placement results — the instrumentation must not
// perturb the solve.
func TestSessionTracingOffIsIdentical(t *testing.T) {
	l, err := GenerateT2()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Window: 32000, R: 2, Rule: DefaultRuleT1T2(), Seed: 3}
	plain, err := NewSession(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = obs.NewTracer(0)
	opts.Logger = obs.NewLogger(&bytes.Buffer{}, slog.LevelDebug, "json")
	opts.ProgressNodes = 1
	traced, err := NewSession(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Run(ILPII)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.Run(ILPII)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Unweighted != b.Result.Unweighted || a.Result.Placed != b.Result.Placed ||
		a.Result.ILPNodes != b.Result.ILPNodes || a.Result.LPPivots != b.Result.LPPivots {
		t.Errorf("tracing changed the run: %+v vs %+v", a.Result, b.Result)
	}
	if len(opts.Trace.Snapshot()) == 0 {
		t.Error("traced session recorded nothing")
	}
}
