// Package rc builds RC trees from routed nets and evaluates the Elmore-delay
// quantities the PIL-Fill formulation needs (Section 3 of the paper):
//
//   - the upstream ("entry") resistance R(x) from the net's source to any
//     point x on any wire segment (Eq 9's ΣR term),
//   - the number of downstream sinks at any point (the weight W_l), and
//   - baseline Elmore delays per sink (Eq 8), used for reporting and for
//     verifying the additivity property that makes the whole formulation
//     linear: adding capacitance ΔC at x increases the delay of every
//     downstream node by exactly ΔC·R(x).
//
// A net's segments must form a tree when glued at coincident endpoints
// (junction points must lie on segment centerlines); Analyze reports
// disconnected sinks and cycles as errors.
package rc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pilfill/internal/cap"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// piece is a run of one original segment between two tree nodes, annotated
// with the electrical state at its driving end.
type piece struct {
	lo, hi  int64   // span along the segment axis (x for horizontal)
	driveLo bool    // true when signal flows lo -> hi
	driveR  float64 // upstream resistance at the driving end
	sinks   int     // sinks downstream of every interior point of the piece
}

// SegAnalysis holds the per-segment electrical view.
type SegAnalysis struct {
	PerUnitRes float64 // ohm/nm
	pieces     []piece
}

// Analysis is the electrical model of one net.
type Analysis struct {
	Net        *layout.Net
	Segs       []SegAnalysis // parallel to Net.Segments
	SinkDelays []float64     // Elmore delay per sink, seconds (parallel to Net.Sinks)
	TotalSinks int
}

// node is a tree vertex at a unique layout point.
type node struct {
	p       geom.Point
	parent  int
	parentR float64 // resistance of the edge to the parent
	upR     float64 // total resistance from source
	subCap  float64 // capacitance of the node's subtree including its own
	sinks   int     // sink terminals at or below this node
	nodeCap float64 // lumped capacitance at this node
	isSink  []int   // indices into Net.Sinks terminating here
}

// edge is a tree edge produced by splitting segments at junctions.
type edge struct {
	u, v     int // node ids; orientation fixed later by the BFS
	segIdx   int
	lo, hi   int64 // coordinates along the segment axis
	res, cpc float64
}

// SinkLoadCap is the default lumped load at each sink terminal, in farads
// (a small receiver gate).
const SinkLoadCap = 2e-15

// Analyze builds the RC tree of the net and computes all Elmore quantities.
func Analyze(net *layout.Net, proc cap.Process) (*Analysis, error) {
	if len(net.Sinks) == 0 {
		return nil, fmt.Errorf("rc: net %q has no sinks", net.Name)
	}
	if len(net.Segments) == 0 {
		return nil, fmt.Errorf("rc: net %q has no segments", net.Name)
	}

	// Node ids for every distinct point: endpoints, source, sinks.
	ids := map[geom.Point]int{}
	var nodes []node
	nodeID := func(p geom.Point) int {
		if id, ok := ids[p]; ok {
			return id
		}
		id := len(nodes)
		ids[p] = id
		nodes = append(nodes, node{p: p, parent: -1})
		return id
	}
	for _, s := range net.Segments {
		nodeID(s.A)
		nodeID(s.B)
	}
	src := nodeID(net.Source.P)
	for i, sk := range net.Sinks {
		id := nodeID(sk.P)
		nodes[id].isSink = append(nodes[id].isSink, i)
		nodes[id].sinks++
		nodes[id].nodeCap += SinkLoadCap
	}

	// Split each segment at every node point lying on its centerline and
	// emit edges for the runs between consecutive split points.
	var edges []edge
	adj := make([][]int, len(nodes)) // node -> edge indices
	for si, s := range net.Segments {
		horizontal := s.Horizontal()
		if s.Length() == 0 {
			// A via/stub: endpoints coincide, nothing to model.
			continue
		}
		var axisLo, axisHi, fixed int64
		if horizontal {
			axisLo, axisHi, fixed = s.A.X, s.B.X, s.A.Y
		} else {
			axisLo, axisHi, fixed = s.A.Y, s.B.Y, s.A.X
		}
		if axisLo > axisHi {
			axisLo, axisHi = axisHi, axisLo
		}
		cuts := []int64{axisLo, axisHi}
		for _, nd := range nodes {
			var along, perp int64
			if horizontal {
				along, perp = nd.p.X, nd.p.Y
			} else {
				along, perp = nd.p.Y, nd.p.X
			}
			if perp == fixed && along > axisLo && along < axisHi {
				cuts = append(cuts, along)
			}
		}
		slices.Sort(cuts)
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if lo == hi {
				continue
			}
			var pu, pv geom.Point
			if horizontal {
				pu, pv = geom.Point{X: lo, Y: fixed}, geom.Point{X: hi, Y: fixed}
			} else {
				pu, pv = geom.Point{X: fixed, Y: lo}, geom.Point{X: fixed, Y: hi}
			}
			e := edge{
				u: nodeID(pu), v: nodeID(pv),
				segIdx: si, lo: lo, hi: hi,
				res: proc.WireResistance(hi-lo, s.Width),
				cpc: proc.WireAreaCap(hi-lo, s.Width),
			}
			ei := len(edges)
			edges = append(edges, e)
			// nodeID may have grown nodes; grow adj to match.
			for len(adj) < len(nodes) {
				adj = append(adj, nil)
			}
			adj[e.u] = append(adj[e.u], ei)
			adj[e.v] = append(adj[e.v], ei)
		}
	}
	for len(adj) < len(nodes) {
		adj = append(adj, nil)
	}

	// BFS from the source to orient the tree and detect cycles.
	visited := make([]bool, len(nodes))
	visitedEdge := make([]bool, len(edges))
	order := make([]int, 0, len(nodes))
	queue := []int{src}
	visited[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, ei := range adj[u] {
			if visitedEdge[ei] {
				continue
			}
			visitedEdge[ei] = true
			e := edges[ei]
			w := e.u + e.v - u
			if visited[w] {
				return nil, fmt.Errorf("rc: net %q contains a cycle at %v", net.Name, nodes[w].p)
			}
			visited[w] = true
			nodes[w].parent = u
			nodes[w].parentR = e.res
			nodes[w].upR = nodes[u].upR + e.res
			// Lump half the wire cap at each end of the edge.
			nodes[w].nodeCap += e.cpc / 2
			nodes[u].nodeCap += e.cpc / 2
			queue = append(queue, w)
		}
	}
	for i, sk := range net.Sinks {
		if id := ids[sk.P]; !visited[id] {
			return nil, fmt.Errorf("rc: net %q sink %d at %v unreachable from source", net.Name, i, sk.P)
		}
	}

	// Subtree sink counts and subtree capacitances, children before parents.
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		nodes[u].subCap += nodes[u].nodeCap
		if p := nodes[u].parent; p >= 0 {
			nodes[p].sinks += nodes[u].sinks
			nodes[p].subCap += nodes[u].subCap
		}
	}

	// Elmore delay per sink: sum over path edges of R_edge * C_subtree(child).
	sinkDelays := make([]float64, len(net.Sinks))
	for i, sk := range net.Sinks {
		id := ids[sk.P]
		tau := 0.0
		for u := id; nodes[u].parent >= 0; u = nodes[u].parent {
			tau += nodes[u].parentR * nodes[u].subCap
		}
		sinkDelays[i] = tau
	}

	// Per-segment pieces. Each tree edge is one piece of its segment; the
	// child node determines direction and sink weight.
	segs := make([]SegAnalysis, len(net.Segments))
	for si, s := range net.Segments {
		if s.Length() > 0 {
			segs[si].PerUnitRes = proc.ResPerLength(s.Width)
		}
	}
	for _, e := range edges {
		var child, parent int
		switch {
		case nodes[e.v].parent == e.u && nodes[e.v].parentR == e.res:
			parent, child = e.u, e.v
		case nodes[e.u].parent == e.v && nodes[e.u].parentR == e.res:
			parent, child = e.v, e.u
		default:
			// Parallel edges between the same node pair would land here;
			// the cycle check above already rejects them.
			return nil, fmt.Errorf("rc: net %q: edge orientation lost", net.Name)
		}
		s := net.Segments[e.segIdx]
		var childAt int64
		if s.Horizontal() {
			childAt = nodes[child].p.X
		} else {
			childAt = nodes[child].p.Y
		}
		pc := piece{
			lo: e.lo, hi: e.hi,
			driveLo: childAt == e.hi, // child at high end => signal flows lo -> hi
			driveR:  nodes[parent].upR,
			sinks:   nodes[child].sinks,
		}
		segs[e.segIdx].pieces = append(segs[e.segIdx].pieces, pc)
	}
	// A segment's pieces have distinct lo, so the order is total.
	for si := range segs {
		slices.SortFunc(segs[si].pieces, func(a, b piece) int { return cmp.Compare(a.lo, b.lo) })
	}

	return &Analysis{
		Net:        net,
		Segs:       segs,
		SinkDelays: sinkDelays,
		TotalSinks: len(net.Sinks),
	}, nil
}

// At returns the upstream resistance and downstream sink count at coordinate
// t along segment segIdx (t is x for horizontal segments, y for vertical).
// t is clamped to the segment's extent.
func (a *Analysis) At(segIdx int, t int64) (upRes float64, sinks int) {
	sa := &a.Segs[segIdx]
	if len(sa.pieces) == 0 {
		return 0, 0
	}
	if t < sa.pieces[0].lo {
		t = sa.pieces[0].lo
	}
	if last := sa.pieces[len(sa.pieces)-1].hi; t > last {
		t = last
	}
	// Binary search the piece containing t.
	i := sort.Search(len(sa.pieces), func(i int) bool { return sa.pieces[i].hi >= t })
	if i == len(sa.pieces) {
		i--
	}
	pc := sa.pieces[i]
	var dist int64
	if pc.driveLo {
		dist = t - pc.lo
	} else {
		dist = pc.hi - t
	}
	return pc.driveR + sa.PerUnitRes*float64(dist), pc.sinks
}

// DeltaDelay returns the total delay impact of adding capacitance deltaC at
// coordinate t on segment segIdx. With weighted false it is Eq 9's per-wire
// delay increment ΔC·R(t); with weighted true it is multiplied by the
// downstream sink count (the paper's W_l), approximating total sink-delay
// impact.
func (a *Analysis) DeltaDelay(segIdx int, t int64, deltaC float64, weighted bool) float64 {
	r, sinks := a.At(segIdx, t)
	d := deltaC * r
	if weighted {
		d *= float64(sinks)
	}
	return d
}
