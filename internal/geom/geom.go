// Package geom provides the integer geometry primitives used throughout the
// fill-synthesis pipeline: points, closed-open rectangles, and 1-D intervals,
// all in integer layout units (nanometers by convention).
//
// Rectangles are half-open on the high side: a point (x, y) is inside
// Rect{X1, Y1, X2, Y2} iff X1 <= x < X2 and Y1 <= y < Y2. This makes
// adjacent tiles partition the plane without double counting.
package geom

import "fmt"

// Point is a location in integer layout units.
type Point struct {
	X, Y int64
}

// Rect is an axis-aligned rectangle, half-open: [X1, X2) x [Y1, Y2).
// A Rect with X2 <= X1 or Y2 <= Y1 is empty.
type Rect struct {
	X1, Y1, X2, Y2 int64
}

// NewRect returns the rectangle spanning the two corner points, normalizing
// the coordinate order so that X1 <= X2 and Y1 <= Y2.
func NewRect(x1, y1, x2, y2 int64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{x1, y1, x2, y2}
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.X2 <= r.X1 || r.Y2 <= r.Y1 }

// Width returns the horizontal extent of r (0 for empty rectangles).
func (r Rect) Width() int64 {
	if r.X2 <= r.X1 {
		return 0
	}
	return r.X2 - r.X1
}

// Height returns the vertical extent of r (0 for empty rectangles).
func (r Rect) Height() int64 {
	if r.Y2 <= r.Y1 {
		return 0
	}
	return r.Y2 - r.Y1
}

// Area returns the area of r in square layout units.
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Contains reports whether the point (x, y) lies inside r.
func (r Rect) Contains(x, y int64) bool {
	return x >= r.X1 && x < r.X2 && y >= r.Y1 && y < r.Y2
}

// ContainsRect reports whether s lies entirely inside r.
// An empty s is contained in everything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.X1 >= r.X1 && s.X2 <= r.X2 && s.Y1 >= r.Y1 && s.Y2 <= r.Y2
}

// Intersect returns the intersection of r and s; the result may be empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		X1: max64(r.X1, s.X1),
		Y1: max64(r.Y1, s.Y1),
		X2: min64(r.X2, s.X2),
		Y2: min64(r.Y2, s.Y2),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Overlaps reports whether r and s share at least one point.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Union returns the smallest rectangle containing both r and s.
// If either is empty, the other is returned.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		X1: min64(r.X1, s.X1),
		Y1: min64(r.Y1, s.Y1),
		X2: max64(r.X2, s.X2),
		Y2: max64(r.Y2, s.Y2),
	}
}

// Expand grows r by d on every side (shrinks for negative d). The result may
// be empty after shrinking.
func (r Rect) Expand(d int64) Rect {
	out := Rect{r.X1 - d, r.Y1 - d, r.X2 + d, r.Y2 + d}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy int64) Rect {
	return Rect{r.X1 + dx, r.Y1 + dy, r.X2 + dx, r.Y2 + dy}
}

// String renders r as "[x1,y1 x2,y2]".
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.X1, r.Y1, r.X2, r.Y2)
}

// Overlap returns the length of the intersection of [a1,a2) and [b1,b2).
func Overlap(a1, a2, b1, b2 int64) int64 {
	lo := max64(a1, b1)
	hi := min64(a2, b2)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
