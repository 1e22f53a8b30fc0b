package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(10, 20, 5, 2)
	want := Rect{5, 2, 10, 20}
	if r != want {
		t.Fatalf("NewRect = %v, want %v", r, want)
	}
}

func TestRectEmpty(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 0, 0}, true},
		{Rect{0, 0, 1, 0}, true},
		{Rect{0, 0, 0, 1}, true},
		{Rect{0, 0, 1, 1}, false},
		{Rect{5, 5, 3, 8}, true},
	}
	for _, c := range cases {
		if got := c.r.Empty(); got != c.want {
			t.Errorf("%v.Empty() = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestRectArea(t *testing.T) {
	if got := (Rect{0, 0, 10, 20}).Area(); got != 200 {
		t.Errorf("Area = %d, want 200", got)
	}
	if got := (Rect{0, 0, -1, 5}).Area(); got != 0 {
		t.Errorf("empty Area = %d, want 0", got)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.Contains(0, 0) {
		t.Error("low corner should be inside (half-open)")
	}
	if r.Contains(10, 10) {
		t.Error("high corner should be outside (half-open)")
	}
	if r.Contains(5, 10) || r.Contains(10, 5) {
		t.Error("high edges should be outside")
	}
	if !r.Contains(9, 9) {
		t.Error("(9,9) should be inside")
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	got := a.Intersect(b)
	want := Rect{5, 5, 10, 10}
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	// Touching rectangles share no area under the half-open convention.
	c := Rect{10, 0, 20, 10}
	if !a.Intersect(c).Empty() {
		t.Error("touching rects should not intersect")
	}
	if a.Overlaps(c) {
		t.Error("Overlaps should be false for touching rects")
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{5, 5, 6, 7}
	got := a.Union(b)
	want := Rect{0, 0, 6, 7}
	if got != want {
		t.Fatalf("Union = %v, want %v", got, want)
	}
	if a.Union(Rect{}) != a {
		t.Error("union with empty should be identity")
	}
	if (Rect{}).Union(b) != b {
		t.Error("union of empty with b should be b")
	}
}

func TestRectExpand(t *testing.T) {
	r := Rect{10, 10, 20, 20}
	if got, want := r.Expand(2), (Rect{8, 8, 22, 22}); got != want {
		t.Errorf("Expand(2) = %v, want %v", got, want)
	}
	if !r.Expand(-5).Empty() {
		t.Error("over-shrinking should produce an empty rect")
	}
}

func TestRectTranslate(t *testing.T) {
	r := Rect{1, 2, 3, 4}
	if got, want := r.Translate(10, -2), (Rect{11, 0, 13, 2}); got != want {
		t.Errorf("Translate = %v, want %v", got, want)
	}
}

func TestContainsRect(t *testing.T) {
	outer := Rect{0, 0, 100, 100}
	if !outer.ContainsRect(Rect{0, 0, 100, 100}) {
		t.Error("rect should contain itself")
	}
	if !outer.ContainsRect(Rect{10, 10, 20, 20}) {
		t.Error("inner rect should be contained")
	}
	if outer.ContainsRect(Rect{90, 90, 110, 110}) {
		t.Error("overflowing rect should not be contained")
	}
	if !outer.ContainsRect(Rect{}) {
		t.Error("empty rect is contained in everything")
	}
}

func TestOverlap(t *testing.T) {
	cases := []struct {
		a1, a2, b1, b2, want int64
	}{
		{0, 10, 5, 15, 5},
		{0, 10, 10, 20, 0},
		{0, 10, -5, 3, 3},
		{0, 10, 2, 4, 2},
		{4, 4, 0, 10, 0},
	}
	for _, c := range cases {
		if got := Overlap(c.a1, c.a2, c.b1, c.b2); got != c.want {
			t.Errorf("Overlap(%d,%d,%d,%d) = %d, want %d", c.a1, c.a2, c.b1, c.b2, got, c.want)
		}
	}
}

// randRect produces rectangles with small coordinates so intersections and
// unions are exercised densely.
func randRect(r *rand.Rand) Rect {
	return NewRect(r.Int63n(40)-20, r.Int63n(40)-20, r.Int63n(40)-20, r.Int63n(40)-20)
}

func TestQuickIntersectCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng), randRect(rng)
		return a.Intersect(b) == b.Intersect(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectionWithinBoth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng), randRect(rng)
		in := a.Intersect(b)
		return a.ContainsRect(in) && b.ContainsRect(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAreaInclusionExclusionBound(t *testing.T) {
	// area(a) + area(b) >= area(a ∩ b), and intersection area is never
	// larger than either operand's area.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng), randRect(rng)
		in := a.Intersect(b).Area()
		return in <= a.Area() && in <= b.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOverlapMatchesIntervalIntersect holds Overlap to the width of the
// intersection of two unit-height rectangles spanning the intervals.
func TestQuickOverlapMatchesIntervalIntersect(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		lo1, hi1 := int64(a1), int64(a2)
		if lo1 > hi1 {
			lo1, hi1 = hi1, lo1
		}
		lo2, hi2 := int64(b1), int64(b2)
		if lo2 > hi2 {
			lo2, hi2 = hi2, lo2
		}
		iv := (Rect{lo1, 0, hi1, 1}).Intersect(Rect{lo2, 0, hi2, 1})
		return Overlap(lo1, hi1, lo2, hi2) == iv.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
