package rc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pilfill/internal/cap"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

var proc = cap.Default130

func pt(x, y int64) geom.Point { return geom.Point{X: x, Y: y} }

func hseg(x1, x2, y, w int64) layout.Segment {
	return layout.Segment{A: pt(x1, y), B: pt(x2, y), Width: w}
}

func vseg(x, y1, y2, w int64) layout.Segment {
	return layout.Segment{A: pt(x, y1), B: pt(x, y2), Width: w}
}

// straightNet is one horizontal wire from source (left) to sink (right).
func straightNet() *layout.Net {
	return &layout.Net{
		Name:     "straight",
		Source:   layout.Pin{P: pt(0, 0)},
		Sinks:    []layout.Pin{{P: pt(10000, 0)}},
		Segments: []layout.Segment{hseg(0, 10000, 0, 200)},
	}
}

// teeNet is a trunk with a branch: source at left end of trunk, sinks at the
// right end of the trunk and the top of a branch rising from its middle.
func teeNet() *layout.Net {
	return &layout.Net{
		Name:   "tee",
		Source: layout.Pin{P: pt(0, 0)},
		Sinks:  []layout.Pin{{P: pt(10000, 0)}, {P: pt(5000, 4000)}},
		Segments: []layout.Segment{
			hseg(0, 10000, 0, 200),
			vseg(5000, 0, 4000, 200),
		},
	}
}

func TestStraightUpstreamResistance(t *testing.T) {
	a, err := Analyze(straightNet(), proc)
	if err != nil {
		t.Fatal(err)
	}
	ru := proc.ResPerLength(200)
	for _, x := range []int64{0, 1000, 5000, 10000} {
		r, sinks := a.At(0, x)
		want := ru * float64(x)
		if math.Abs(r-want) > 1e-9*math.Max(want, 1) {
			t.Errorf("R(%d) = %g, want %g", x, r, want)
		}
		if sinks != 1 {
			t.Errorf("sinks at %d = %d, want 1", x, sinks)
		}
	}
}

func TestAtClampsOutside(t *testing.T) {
	a, err := Analyze(straightNet(), proc)
	if err != nil {
		t.Fatal(err)
	}
	rLo, _ := a.At(0, -500)
	if rLo != 0 {
		t.Errorf("R(-500) = %g, want 0", rLo)
	}
	rHi, _ := a.At(0, 50000)
	want := proc.WireResistance(10000, 200)
	if math.Abs(rHi-want) > 1e-9 {
		t.Errorf("R(inf) = %g, want %g", rHi, want)
	}
}

func TestSourceAtInteriorSplitsFlow(t *testing.T) {
	// Source in the middle of the wire, sinks at both ends: signal flows
	// outward in both directions and each half carries one sink.
	n := &layout.Net{
		Name:     "mid",
		Source:   layout.Pin{P: pt(5000, 0)},
		Sinks:    []layout.Pin{{P: pt(0, 0)}, {P: pt(10000, 0)}},
		Segments: []layout.Segment{hseg(0, 10000, 0, 200)},
	}
	a, err := Analyze(n, proc)
	if err != nil {
		t.Fatal(err)
	}
	ru := proc.ResPerLength(200)
	r, sinks := a.At(0, 2000) // 3000 nm from the source, flowing leftward
	if math.Abs(r-ru*3000) > 1e-9 {
		t.Errorf("R(2000) = %g, want %g", r, ru*3000)
	}
	if sinks != 1 {
		t.Errorf("sinks = %d, want 1", sinks)
	}
	r, _ = a.At(0, 9000) // 4000 nm from source, rightward
	if math.Abs(r-ru*4000) > 1e-9 {
		t.Errorf("R(9000) = %g, want %g", r, ru*4000)
	}
	// At the source itself, resistance is zero.
	r, _ = a.At(0, 5000)
	if r != 0 {
		t.Errorf("R(5000) = %g, want 0", r)
	}
}

func TestTeeWeightsAndResistance(t *testing.T) {
	a, err := Analyze(teeNet(), proc)
	if err != nil {
		t.Fatal(err)
	}
	ru := proc.ResPerLength(200)
	// Before the branch point both sinks are downstream.
	_, sinks := a.At(0, 2000)
	if sinks != 2 {
		t.Errorf("sinks before branch = %d, want 2", sinks)
	}
	// After the branch point only the trunk sink remains.
	_, sinks = a.At(0, 7000)
	if sinks != 1 {
		t.Errorf("sinks after branch = %d, want 1", sinks)
	}
	// On the branch, one sink; R accumulates through the trunk first.
	r, sinks := a.At(1, 1000)
	want := ru*5000 + ru*1000
	if sinks != 1 {
		t.Errorf("branch sinks = %d, want 1", sinks)
	}
	if math.Abs(r-want) > 1e-9*want {
		t.Errorf("branch R = %g, want %g", r, want)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Analyze(&layout.Net{Name: "nosink", Source: layout.Pin{P: pt(0, 0)},
		Segments: []layout.Segment{hseg(0, 100, 0, 50)}}, proc); err == nil {
		t.Error("sinkless net accepted")
	}
	if _, err := Analyze(&layout.Net{Name: "noseg", Source: layout.Pin{P: pt(0, 0)},
		Sinks: []layout.Pin{{P: pt(1, 0)}}}, proc); err == nil {
		t.Error("segmentless net accepted")
	}
	// Disconnected sink.
	n := straightNet()
	n.Sinks = append(n.Sinks, layout.Pin{P: pt(500, 9000)})
	if _, err := Analyze(n, proc); err == nil {
		t.Error("disconnected sink accepted")
	}
	// Cycle: a square loop.
	loop := &layout.Net{
		Name:   "loop",
		Source: layout.Pin{P: pt(0, 0)},
		Sinks:  []layout.Pin{{P: pt(1000, 1000)}},
		Segments: []layout.Segment{
			hseg(0, 1000, 0, 50),
			vseg(1000, 0, 1000, 50),
			hseg(0, 1000, 1000, 50),
			vseg(0, 0, 1000, 50),
		},
	}
	if _, err := Analyze(loop, proc); err == nil {
		t.Error("cyclic net accepted")
	}
}

// bruteElmore recomputes each sink's Elmore delay as Σ_j C_j·R(common path),
// enumerating node capacitances independently of the implementation.
func bruteElmore(t *testing.T, net *layout.Net) []float64 {
	t.Helper()
	type nd struct {
		p   geom.Point
		cap float64
	}
	// Collect nodes: endpoints + pins, split edges like Analyze does.
	pts := map[geom.Point]bool{net.Source.P: true}
	for _, s := range net.Segments {
		pts[s.A] = true
		pts[s.B] = true
	}
	for _, sk := range net.Sinks {
		pts[sk.P] = true
	}
	var nodes []nd
	idx := map[geom.Point]int{}
	for p := range pts {
		idx[p] = len(nodes)
		nodes = append(nodes, nd{p: p})
	}
	type ed struct {
		u, v int
		r    float64
	}
	var edges []ed
	for _, s := range net.Segments {
		if s.Length() == 0 {
			continue
		}
		horiz := s.Horizontal()
		var lo, hi, fixed int64
		if horiz {
			lo, hi, fixed = s.A.X, s.B.X, s.A.Y
		} else {
			lo, hi, fixed = s.A.Y, s.B.Y, s.A.X
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		var cuts []int64
		cuts = append(cuts, lo, hi)
		for p := range pts {
			var along, perp int64
			if horiz {
				along, perp = p.X, p.Y
			} else {
				along, perp = p.Y, p.X
			}
			if perp == fixed && along > lo && along < hi {
				cuts = append(cuts, along)
			}
		}
		for i := range cuts {
			for j := i + 1; j < len(cuts); j++ {
				if cuts[j] < cuts[i] {
					cuts[i], cuts[j] = cuts[j], cuts[i]
				}
			}
		}
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if a == b {
				continue
			}
			var pa, pb geom.Point
			if horiz {
				pa, pb = pt(a, fixed), pt(b, fixed)
			} else {
				pa, pb = pt(fixed, a), pt(fixed, b)
			}
			r := proc.WireResistance(b-a, s.Width)
			c := proc.WireAreaCap(b-a, s.Width)
			edges = append(edges, ed{idx[pa], idx[pb], r})
			nodes[idx[pa]].cap += c / 2
			nodes[idx[pb]].cap += c / 2
		}
	}
	for _, sk := range net.Sinks {
		nodes[idx[sk.P]].cap += SinkLoadCap
	}
	// BFS tree from source, recording parents.
	parent := make([]int, len(nodes))
	parentR := make([]float64, len(nodes))
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, len(nodes))
	srcID := idx[net.Source.P]
	visited[srcID] = true
	queue := []int{srcID}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range edges {
			var w int
			switch u {
			case e.u:
				w = e.v
			case e.v:
				w = e.u
			default:
				continue
			}
			if visited[w] {
				continue
			}
			visited[w] = true
			parent[w] = u
			parentR[w] = e.r
			queue = append(queue, w)
		}
	}
	pathTo := func(k int) map[int]float64 {
		// upstream resistance of each node on the path source -> k.
		res := map[int]float64{}
		var chain []int
		for u := k; u != -1; u = parent[u] {
			chain = append(chain, u)
		}
		r := 0.0
		for i := len(chain) - 1; i >= 0; i-- {
			if i < len(chain)-1 {
				r += parentR[chain[i]]
			}
			res[chain[i]] = r
		}
		return res
	}
	upR := pathTo(srcID)
	_ = upR
	allUp := make([]float64, len(nodes))
	for i := range nodes {
		r := 0.0
		for u := i; parent[u] != -1; u = parent[u] {
			r += parentR[u]
		}
		allUp[i] = r
	}
	onPath := func(k int) map[int]bool {
		m := map[int]bool{}
		for u := k; u != -1; u = parent[u] {
			m[u] = true
		}
		return m
	}
	out := make([]float64, len(net.Sinks))
	for si, sk := range net.Sinks {
		k := idx[sk.P]
		path := onPath(k)
		tau := 0.0
		for j := range nodes {
			// R(common prefix of paths to j and k): walk up from j until on
			// k's path.
			u := j
			for !path[u] {
				u = parent[u]
			}
			tau += nodes[j].cap * allUp[u]
		}
		out[si] = tau
	}
	return out
}

func TestElmoreMatchesBruteForceStraight(t *testing.T) {
	n := straightNet()
	a, err := Analyze(n, proc)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteElmore(t, n)
	for i := range want {
		if math.Abs(a.SinkDelays[i]-want[i]) > 1e-12*math.Max(want[i], 1e-15) {
			t.Errorf("sink %d: delay %g, want %g", i, a.SinkDelays[i], want[i])
		}
	}
}

func TestElmoreMatchesBruteForceTee(t *testing.T) {
	n := teeNet()
	a, err := Analyze(n, proc)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteElmore(t, n)
	for i := range want {
		if math.Abs(a.SinkDelays[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("sink %d: delay %g, want %g", i, a.SinkDelays[i], want[i])
		}
	}
}

// randomTreeNet builds a random trunk-with-branches net (the router's shape).
func randomTreeNet(rng *rand.Rand) *layout.Net {
	trunkY := int64(0)
	trunkLen := int64(4000 + rng.Intn(16000))
	n := &layout.Net{
		Name:     "rand",
		Source:   layout.Pin{P: pt(0, trunkY)},
		Segments: []layout.Segment{hseg(0, trunkLen, trunkY, 140)},
	}
	branches := 1 + rng.Intn(4)
	used := map[int64]bool{}
	for b := 0; b < branches; b++ {
		// Keep branches strictly between the source and the trunk end so
		// every sink is downstream of any point just right of the source.
		bx := int64(1+rng.Intn(int(trunkLen/100)-1)) * 100
		if used[bx] {
			continue
		}
		used[bx] = true
		by := int64(1000 + rng.Intn(5000))
		if rng.Intn(2) == 0 {
			by = -by
		}
		y1, y2 := trunkY, by
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		n.Segments = append(n.Segments, vseg(bx, y1, y2, 140))
		n.Sinks = append(n.Sinks, layout.Pin{P: pt(bx, by)})
	}
	n.Sinks = append(n.Sinks, layout.Pin{P: pt(trunkLen, trunkY)})
	return n
}

func TestQuickElmoreMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomTreeNet(rng)
		a, err := Analyze(n, proc)
		if err != nil {
			return false
		}
		want := bruteElmore(t, n)
		for i := range want {
			if math.Abs(a.SinkDelays[i]-want[i]) > 1e-9*math.Max(want[i], 1e-18) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUpstreamResistanceMonotoneAlongFlow(t *testing.T) {
	// Moving along the signal direction, R never decreases.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomTreeNet(rng)
		a, err := Analyze(n, proc)
		if err != nil {
			return false
		}
		// The trunk flows left to right (source at x=0).
		prev := -1.0
		for x := int64(0); x <= n.Segments[0].Length(); x += 500 {
			r, _ := a.At(0, x)
			if r < prev-1e-12 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSinkWeightsConserved(t *testing.T) {
	// Immediately downstream of the source, the weight equals the total
	// sink count (all sinks are ahead); weights never exceed it anywhere.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomTreeNet(rng)
		a, err := Analyze(n, proc)
		if err != nil {
			return false
		}
		_, w := a.At(0, 1) // just right of the source on the trunk
		if w != len(n.Sinks) {
			return false
		}
		for si := range n.Segments {
			for _, x := range []int64{0, 100, 1000} {
				if _, s := a.At(si, x); s > len(n.Sinks) || s < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaDelay(t *testing.T) {
	a, err := Analyze(teeNet(), proc)
	if err != nil {
		t.Fatal(err)
	}
	dc := 1e-15
	r, sinks := a.At(0, 2000)
	if got, want := a.DeltaDelay(0, 2000, dc, false), dc*r; math.Abs(got-want) > 1e-25 {
		t.Errorf("unweighted = %g, want %g", got, want)
	}
	if got, want := a.DeltaDelay(0, 2000, dc, true), dc*r*float64(sinks); math.Abs(got-want) > 1e-25 {
		t.Errorf("weighted = %g, want %g", got, want)
	}
	// DeltaDelay is linear in deltaC (the additivity property of Fig 3).
	if got, want := a.DeltaDelay(0, 2000, 3*dc, true), 3*a.DeltaDelay(0, 2000, dc, true); math.Abs(got-want) > 1e-24 {
		t.Errorf("linearity violated: %g vs %g", got, want)
	}
}

// TestMaxUpstreamRes: the largest upstream resistance over all piece ends
// of a straight net is the whole wire's resistance.
func TestMaxUpstreamRes(t *testing.T) {
	a, err := Analyze(straightNet(), proc)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for si := range a.Segs {
		for _, pc := range a.Segs[si].pieces {
			worst = math.Max(worst, pc.driveR+a.Segs[si].PerUnitRes*float64(pc.hi-pc.lo))
		}
	}
	if want := proc.WireResistance(10000, 200); math.Abs(worst-want) > 1e-9 {
		t.Errorf("max upstream resistance = %g, want %g", worst, want)
	}
}

func TestViaOnlySegmentsIgnored(t *testing.T) {
	n := straightNet()
	n.Segments = append(n.Segments, layout.Segment{A: pt(5000, 0), B: pt(5000, 0), Width: 200})
	a, err := Analyze(n, proc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Segs[1].pieces) != 0 {
		t.Error("zero-length segment should have no pieces")
	}
	if r, _ := a.At(1, 0); r != 0 {
		t.Error("At on empty segment should return 0")
	}
}

func BenchmarkAnalyzeTee(b *testing.B) {
	n := teeNet()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(n, proc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAnalyzeAllocs bounds Analyze's allocations on a multi-segment net: the
// cut and piece sorts allocate nothing (sort.Slice allocated a swapper for
// each, 38 allocations in all on this net).
func TestAnalyzeAllocs(t *testing.T) {
	n := teeNet()
	if got := testing.AllocsPerRun(20, func() {
		if _, err := Analyze(n, proc); err != nil {
			t.Fatal(err)
		}
	}); got > 28 {
		t.Errorf("Analyze on a %d-segment net: %v allocations, want <= 28", len(n.Segments), got)
	}
}
