package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pilfill/internal/cap"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/rc"
)

func pin(x, y int64) layout.Pin { return layout.Pin{P: geom.Point{X: x, Y: y}} }

func TestTrunkSimple(t *testing.T) {
	segs, err := Trunk(pin(0, 1000), []layout.Pin{pin(5000, 3000), pin(8000, 1000)}, 0, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Trunk 0..8000 at y=1000 plus one branch at x=5000 up to 3000.
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2: %v", len(segs), segs)
	}
	if !segs[0].Horizontal() || segs[0].Length() != 8000 {
		t.Errorf("trunk = %v", segs[0])
	}
	if segs[1].Horizontal() || segs[1].Length() != 2000 {
		t.Errorf("branch = %v", segs[1])
	}
	if segs[0].Layer != 0 || segs[1].Layer != 1 {
		t.Error("layers not assigned")
	}
}

func TestTrunkSharedSinkColumn(t *testing.T) {
	// Two sinks above the trunk at the same X must merge into one branch.
	segs, err := Trunk(pin(0, 0), []layout.Pin{pin(4000, 2000), pin(4000, 5000), pin(4000, -1000)}, 0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	var vertical int
	for _, s := range segs {
		if !s.Horizontal() {
			vertical++
		}
	}
	if vertical != 2 { // one up (to 5000), one down (to -1000)
		t.Fatalf("vertical segments = %d, want 2 (%v)", vertical, segs)
	}
}

func TestTrunkErrors(t *testing.T) {
	if _, err := Trunk(pin(0, 0), nil, 0, 1, 100); err == nil {
		t.Error("no sinks accepted")
	}
	if _, err := Trunk(pin(0, 0), []layout.Pin{pin(1, 1)}, 0, 1, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Trunk(pin(0, 0), []layout.Pin{pin(0, 0)}, 0, 1, 100); err == nil {
		t.Error("degenerate coincident net accepted")
	}
}

func TestWireLength(t *testing.T) {
	segs, err := Trunk(pin(0, 0), []layout.Pin{pin(1000, 500)}, 0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, s := range segs {
		got += s.Length()
	}
	if got != 1500 {
		t.Errorf("wire length = %d, want 1500", got)
	}
}

// TestQuickRoutesFormValidRCTrees is the key property: any random pin set
// must produce a net that rc.Analyze accepts (tree, connected) with every
// sink reachable.
func TestQuickRoutesFormValidRCTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := pin(rng.Int63n(20000), rng.Int63n(20000))
		nSinks := 1 + rng.Intn(6)
		var sinks []layout.Pin
		for i := 0; i < nSinks; i++ {
			sk := pin(rng.Int63n(20000), rng.Int63n(20000))
			if sk.P == src.P {
				sk.P.X++
			}
			sinks = append(sinks, sk)
		}
		segs, err := Trunk(src, sinks, 0, 1, 140)
		if err != nil {
			return false
		}
		net := &layout.Net{Name: "q", Source: src, Sinks: sinks, Segments: segs}
		a, err := rc.Analyze(net, cap.Default130)
		if err != nil {
			return false
		}
		return a.TotalSinks == len(sinks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTrunkSpansAllPins checks geometric coverage: every sink is on
// some segment's centerline.
func TestQuickTrunkSpansAllPins(t *testing.T) {
	onSegment := func(p geom.Point, s layout.Segment) bool {
		if s.Horizontal() {
			lo, hi := s.A.X, s.B.X
			if lo > hi {
				lo, hi = hi, lo
			}
			return p.Y == s.A.Y && p.X >= lo && p.X <= hi
		}
		lo, hi := s.A.Y, s.B.Y
		if lo > hi {
			lo, hi = hi, lo
		}
		return p.X == s.A.X && p.Y >= lo && p.Y <= hi
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := pin(rng.Int63n(9000), rng.Int63n(9000))
		var sinks []layout.Pin
		for i := 0; i < 1+rng.Intn(5); i++ {
			sk := pin(rng.Int63n(9000), rng.Int63n(9000))
			if sk.P == src.P {
				sk.P.X++
			}
			sinks = append(sinks, sk)
		}
		segs, err := Trunk(src, sinks, 0, 1, 100)
		if err != nil {
			return false
		}
		for _, sk := range append([]layout.Pin{src}, sinks...) {
			found := false
			for _, s := range segs {
				if onSegment(sk.P, s) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
