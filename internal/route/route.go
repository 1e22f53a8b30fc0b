// Package route provides the trunk-and-branch rectilinear router used to
// produce routed nets for the synthetic testcases. It is intentionally
// simple — a horizontal trunk on the preferred routing layer at the source's
// Y, with vertical branches dropping to each sink — but it produces genuine
// RC trees (single driver, tree topology, realistic wire lengths), which is
// all the fill-synthesis pipeline needs from a router.
package route

import (
	"fmt"
	"sort"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// Trunk routes a net as a horizontal trunk at the source's Y coordinate with
// one vertical branch per distinct sink X. Sinks sharing an X coordinate are
// served by merged up/down branches so the result is always a tree (package
// rc rejects parallel edges). hLayer carries the trunk, vLayer the branches.
func Trunk(source layout.Pin, sinks []layout.Pin, hLayer, vLayer int, width int64) ([]layout.Segment, error) {
	if len(sinks) == 0 {
		return nil, fmt.Errorf("route: no sinks")
	}
	if width <= 0 {
		return nil, fmt.Errorf("route: width %d", width)
	}
	trunkY := source.P.Y
	minX, maxX := source.P.X, source.P.X
	for _, s := range sinks {
		if s.P.X < minX {
			minX = s.P.X
		}
		if s.P.X > maxX {
			maxX = s.P.X
		}
	}

	var segs []layout.Segment
	if minX < maxX {
		segs = append(segs, layout.Segment{
			Layer: hLayer,
			A:     geom.Point{X: minX, Y: trunkY},
			B:     geom.Point{X: maxX, Y: trunkY},
			Width: width,
		})
	}

	// Merge branches by X: one upward and one downward span per column.
	up := map[int64]int64{}   // x -> highest sink Y above the trunk
	down := map[int64]int64{} // x -> lowest sink Y below the trunk
	for _, s := range sinks {
		switch {
		case s.P.Y > trunkY:
			if cur, ok := up[s.P.X]; !ok || s.P.Y > cur {
				up[s.P.X] = s.P.Y
			}
		case s.P.Y < trunkY:
			if cur, ok := down[s.P.X]; !ok || s.P.Y < cur {
				down[s.P.X] = s.P.Y
			}
		}
		// Sinks on the trunk need no branch; they land on its centerline.
	}
	xs := make([]int64, 0, len(up)+len(down))
	for x := range up {
		xs = append(xs, x)
	}
	for x := range down {
		if _, dup := up[x]; !dup {
			xs = append(xs, x)
		}
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	for _, x := range xs {
		if y, ok := up[x]; ok {
			segs = append(segs, layout.Segment{
				Layer: vLayer,
				A:     geom.Point{X: x, Y: trunkY},
				B:     geom.Point{X: x, Y: y},
				Width: width,
			})
		}
		if y, ok := down[x]; ok {
			segs = append(segs, layout.Segment{
				Layer: vLayer,
				A:     geom.Point{X: x, Y: y},
				B:     geom.Point{X: x, Y: trunkY},
				Width: width,
			})
		}
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("route: source and all sinks coincide at %v", source.P)
	}
	return segs, nil
}
