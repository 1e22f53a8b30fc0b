package layout

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pilfill/internal/geom"
)

func hseg(x1, x2, y, w int64) Segment {
	return Segment{Layer: 0, A: geom.Point{X: x1, Y: y}, B: geom.Point{X: x2, Y: y}, Width: w}
}

func vseg(x, y1, y2, w int64) Segment {
	return Segment{Layer: 0, A: geom.Point{X: x, Y: y1}, B: geom.Point{X: x, Y: y2}, Width: w}
}

func simpleLayout() *Layout {
	return &Layout{
		Name:   "t",
		Die:    geom.Rect{X1: 0, Y1: 0, X2: 10000, Y2: 10000},
		Layers: []Layer{{Name: "m3", Dir: Horizontal, Width: 200}},
		Nets: []*Net{
			{
				Name:   "n1",
				Source: Pin{Name: "s", P: geom.Point{X: 500, Y: 2000}},
				Sinks:  []Pin{{Name: "k", P: geom.Point{X: 9000, Y: 2000}}},
				Segments: []Segment{
					hseg(500, 9000, 2000, 200),
				},
			},
			{
				Name:   "n2",
				Source: Pin{Name: "s", P: geom.Point{X: 500, Y: 6000}},
				Sinks:  []Pin{{Name: "k", P: geom.Point{X: 8000, Y: 6000}}},
				Segments: []Segment{
					hseg(500, 8000, 6000, 200),
				},
			},
		},
	}
}

func TestSegmentGeometry(t *testing.T) {
	s := hseg(100, 900, 500, 200)
	if !s.Horizontal() {
		t.Error("hseg should be horizontal")
	}
	if s.Length() != 800 {
		t.Errorf("length = %d, want 800", s.Length())
	}
	if got, want := s.Rect(), (geom.Rect{X1: 0, Y1: 400, X2: 1000, Y2: 600}); got != want {
		t.Errorf("rect = %v, want %v", got, want)
	}
	v := vseg(100, 0, 300, 100)
	if v.Horizontal() {
		t.Error("vseg should not be horizontal")
	}
	if got, want := v.Rect(), (geom.Rect{X1: 50, Y1: -50, X2: 150, Y2: 350}); got != want {
		t.Errorf("vrect = %v, want %v", got, want)
	}
}

func TestValidate(t *testing.T) {
	l := simpleLayout()
	if err := l.Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	bad := simpleLayout()
	bad.Nets[0].Segments[0].B = geom.Point{X: 900, Y: 2100} // diagonal
	if err := bad.Validate(); err == nil {
		t.Error("diagonal segment accepted")
	}
	bad2 := simpleLayout()
	bad2.Nets[0].Segments[0].Width = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero-width segment accepted")
	}
	bad3 := simpleLayout()
	bad3.Nets[0].Segments[0].Layer = 5
	if err := bad3.Validate(); err == nil {
		t.Error("unknown layer accepted")
	}
	bad4 := simpleLayout()
	bad4.Nets[0].Segments[0].B.X = 99999
	if err := bad4.Validate(); err == nil {
		t.Error("out-of-die segment accepted")
	}
	bad5 := simpleLayout()
	bad5.Nets[0].Sinks = nil
	if err := bad5.Validate(); err == nil {
		t.Error("sinkless net accepted")
	}
}

func TestDissectionBasics(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 32000, Y2: 32000}
	d, err := NewDissection(die, 8000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tile != 2000 || d.NX != 16 || d.NY != 16 {
		t.Fatalf("tile=%d nx=%d ny=%d", d.Tile, d.NX, d.NY)
	}
	if got, want := d.TileRect(0, 0), (geom.Rect{X1: 0, Y1: 0, X2: 2000, Y2: 2000}); got != want {
		t.Errorf("tile(0,0) = %v", got)
	}
	if got, want := d.TileRect(15, 15), (geom.Rect{X1: 30000, Y1: 30000, X2: 32000, Y2: 32000}); got != want {
		t.Errorf("tile(15,15) = %v", got)
	}
	wx, wy := d.NumWindows()
	if wx != 13 || wy != 13 {
		t.Errorf("windows = %dx%d, want 13x13", wx, wy)
	}
	if got, want := d.WindowRect(0, 0), (geom.Rect{X1: 0, Y1: 0, X2: 8000, Y2: 8000}); got != want {
		t.Errorf("window(0,0) = %v", got)
	}
	i, j := d.TileIndex(2000, 1999)
	if i != 1 || j != 0 {
		t.Errorf("TileIndex = (%d,%d), want (1,0)", i, j)
	}
	// Die-edge point maps to the last tile.
	i, j = d.TileIndex(31999, 31999)
	if i != 15 || j != 15 {
		t.Errorf("TileIndex edge = (%d,%d)", i, j)
	}
}

func TestDissectionErrors(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 32000, Y2: 32000}
	if _, err := NewDissection(geom.Rect{}, 8000, 4); err == nil {
		t.Error("empty die accepted")
	}
	if _, err := NewDissection(die, 8000, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := NewDissection(die, 9001, 4); err == nil {
		t.Error("indivisible window accepted")
	}
	if _, err := NewDissection(die, 640000, 4); err == nil {
		t.Error("window larger than die accepted")
	}
}

func TestDissectionShortEdgeTiles(t *testing.T) {
	// 33000-wide die with 2000 tiles: 17 tiles, last one 1000 wide.
	die := geom.Rect{X1: 0, Y1: 0, X2: 33000, Y2: 33000}
	d, err := NewDissection(die, 8000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.NX != 17 {
		t.Fatalf("NX = %d, want 17", d.NX)
	}
	last := d.TileRect(16, 0)
	if last.Width() != 1000 {
		t.Errorf("last tile width = %d, want 1000", last.Width())
	}
	// All tiles partition the die.
	var total int64
	for i := 0; i < d.NX; i++ {
		for j := 0; j < d.NY; j++ {
			total += d.TileRect(i, j).Area()
		}
	}
	if total != die.Area() {
		t.Errorf("tile areas sum %d != die area %d", total, die.Area())
	}
}

func TestSiteGrid(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 10000, Y2: 10000}
	g, err := NewSiteGrid(die, FillRule{Feature: 300, Gap: 100, Buffer: 150})
	if err != nil {
		t.Fatal(err)
	}
	// pitch 400; last full feature starts at <= 9700: cols = 25 (0..24,
	// col 24 at 9600..9900).
	if g.Cols != 25 || g.Rows != 25 {
		t.Fatalf("grid = %dx%d, want 25x25", g.Cols, g.Rows)
	}
	r := g.SiteRect(24, 0)
	if r.X2 > die.X2 {
		t.Errorf("site 24 rect %v leaves die", r)
	}
	if g.SiteCenterX(0) != 150 {
		t.Errorf("center = %d, want 150", g.SiteCenterX(0))
	}
}

func TestColRange(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 10000, Y2: 10000}
	g, _ := NewSiteGrid(die, FillRule{Feature: 300, Gap: 100})
	// Feature c occupies [400c, 400c+300).
	cases := []struct {
		x1, x2 int64
		lo, hi int
	}{
		{0, 400, 0, 1},      // touches feature 0 only (gap belongs to none)
		{0, 401, 0, 2},      // just into feature 1
		{300, 400, 0, 0},    // pure gap
		{350, 450, 1, 2},    // overlaps feature 1's start
		{0, 10000, 0, 25},   // everything
		{-500, 100, 0, 1},   // clamped left
		{9900, 20000, 0, 0}, // beyond last feature (24 ends at 9900)
		{9899, 9900, 24, 25},
	}
	for _, c := range cases {
		lo, hi := g.ColRange(c.x1, c.x2)
		if c.lo == c.hi {
			// Any representation of the empty range is acceptable.
			if lo != hi {
				t.Errorf("ColRange(%d,%d) = [%d,%d), want empty", c.x1, c.x2, lo, hi)
			}
			continue
		}
		if lo != c.lo || hi != c.hi {
			t.Errorf("ColRange(%d,%d) = [%d,%d), want [%d,%d)", c.x1, c.x2, lo, hi, c.lo, c.hi)
		}
	}
}

func TestQuickColRangeMatchesBruteForce(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 20000, Y2: 20000}
	g, _ := NewSiteGrid(die, FillRule{Feature: 250, Gap: 150})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x1 := rng.Int63n(22000) - 1000
		x2 := x1 + rng.Int63n(5000)
		lo, hi := g.ColRange(x1, x2)
		for c := 0; c < g.Cols; c++ {
			r := g.SiteRect(c, 0)
			intersects := geom.Overlap(r.X1, r.X2, x1, x2) > 0
			inRange := c >= lo && c < hi
			if intersects != inRange {
				return false
			}
		}
		return true
	}
	// A seed that draws an empty span (x1 = x2 = 4629) strictly inside a
	// site, which once came back as the non-empty range [11, 12).
	if !f(8267686274707988139) {
		t.Fatal("empty span strictly inside a site: ColRange is not empty")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancy(t *testing.T) {
	l := simpleLayout()
	g, _ := NewSiteGrid(l.Die, FillRule{Feature: 300, Gap: 100, Buffer: 150})
	occ := NewOccupancy(l, g, 0)
	// Net n1 spans y in [1900, 2100]; with buffer 150 the keep-out is
	// [1750, 2250]. Sites with feature y in [1600..2400) rows overlap:
	// rows 4 (1600..1900) .. 5 (2000..2300): row 4 feature [1600,1900)
	// does NOT overlap (1750 < 1900 -> overlaps!). Check via geometry.
	blockedCount := 0
	for c := 0; c < g.Cols; c++ {
		for r := 0; r < g.Rows; r++ {
			keepout := g.SiteRect(c, r).Expand(150)
			want := false
			for _, n := range l.Nets {
				for _, s := range n.Segments {
					if keepout.Overlaps(s.Rect()) {
						want = true
					}
				}
			}
			if got := occ.Blocked(c, r); got != want {
				t.Fatalf("site (%d,%d): blocked = %v, want %v", c, r, got, want)
			}
			if occ.Blocked(c, r) {
				blockedCount++
			}
		}
	}
	if blockedCount == 0 {
		t.Fatal("expected some blocked sites")
	}
	free := 0
	for c := 0; c < g.Cols; c++ {
		free += occ.FreeInColumn(c, 0, g.Rows)
	}
	if free != g.Cols*g.Rows-blockedCount {
		t.Errorf("free sites = %d, want %d", free, g.Cols*g.Rows-blockedCount)
	}
}

func TestFreeInColumn(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 4000, Y2: 4000}
	g, _ := NewSiteGrid(die, FillRule{Feature: 300, Gap: 100})
	occ := &Occupancy{Grid: g, blocked: make([]bool, g.Cols*g.Rows)}
	occ.blocked[2*g.Rows+3] = true
	occ.blocked[2*g.Rows+5] = true
	if got := occ.FreeInColumn(2, 0, g.Rows); got != g.Rows-2 {
		t.Errorf("FreeInColumn = %d, want %d", got, g.Rows-2)
	}
	if got := occ.FreeInColumn(2, 3, 4); got != 0 {
		t.Errorf("blocked row counted free")
	}
}

// TestSiteGridInt32Bound: slack columns store site indices as int32, so a
// grid with more columns or rows than that is rejected.
func TestSiteGridInt32Bound(t *testing.T) {
	rule := FillRule{Feature: 300, Gap: 100}
	side := func(n int64) int64 { return (n-1)*rule.Pitch() + rule.Feature } // exactly n sites
	for _, c := range []struct {
		cols, rows int64
		ok         bool
	}{
		{math.MaxInt32, 10, true},
		{10, math.MaxInt32, true},
		{math.MaxInt32 + 1, 10, false},
		{10, math.MaxInt32 + 1, false},
	} {
		g, err := NewSiteGrid(geom.Rect{X2: side(c.cols), Y2: side(c.rows)}, rule)
		if (err == nil) != c.ok {
			t.Fatalf("%d x %d sites: error %v, want ok=%v", c.cols, c.rows, err, c.ok)
		}
		if err == nil && (int64(g.Cols) != c.cols || int64(g.Rows) != c.rows) {
			t.Fatalf("grid = %dx%d, want %dx%d", g.Cols, g.Rows, c.cols, c.rows)
		}
	}
}

// TestSiteGridShortAxis: an axis shorter than one feature holds no site,
// even when it is longer than feature - pitch (truncating the negative
// (span-feature)/pitch toward zero used to give it one, outside the die).
func TestSiteGridShortAxis(t *testing.T) {
	rule := FillRule{Feature: 300, Gap: 100}
	for _, c := range []struct {
		die        geom.Rect
		cols, rows int
	}{
		{geom.Rect{X2: 100, Y2: 100}, 0, 0},
		{geom.Rect{X2: 299, Y2: 1000}, 0, 2},
		{geom.Rect{X2: 300, Y2: 299}, 1, 0},
		{geom.Rect{X2: 300, Y2: 300}, 1, 1},
	} {
		g, err := NewSiteGrid(c.die, rule)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cols != c.cols || g.Rows != c.rows {
			t.Errorf("die %v: grid %dx%d, want %dx%d", c.die, g.Cols, g.Rows, c.cols, c.rows)
		}
	}
}

// TestQuickSitesInsideDie: on random dies and rules every site's feature
// square lies inside the die (the grid is uniform, so its two corner sites
// bound all of them), and one more column or row would not.
func TestQuickSitesInsideDie(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 2000; trial++ {
		rule := FillRule{Feature: 1 + rng.Int63n(500), Gap: rng.Int63n(300)}
		x1, y1 := rng.Int63n(2001)-1000, rng.Int63n(2001)-1000
		die := geom.Rect{X1: x1, Y1: y1, X2: x1 + 1 + rng.Int63n(4000), Y2: y1 + 1 + rng.Int63n(4000)}
		g, err := NewSiteGrid(die, rule)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cols > 0 && g.Rows > 0 {
			for _, s := range []geom.Rect{g.SiteRect(0, 0), g.SiteRect(g.Cols-1, g.Rows-1)} {
				if !die.ContainsRect(s) {
					t.Fatalf("die %v, rule %+v: site %v leaves the die", die, rule, s)
				}
			}
		}
		if die.ContainsRect(g.SiteRect(g.Cols, 0)) || die.ContainsRect(g.SiteRect(0, g.Rows)) {
			t.Fatalf("die %v, rule %+v: grid %dx%d misses a site inside the die", die, rule, g.Cols, g.Rows)
		}
	}
}

func TestTileFeatureAreas(t *testing.T) {
	l := simpleLayout()
	d, err := NewDissection(l.Die, 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	areas := l.TileFeatureAreas(0, d)
	var total int64
	for i := range areas {
		for j := range areas[i] {
			total += areas[i][j]
		}
	}
	var want int64
	for _, n := range l.Nets {
		for _, s := range n.Segments {
			want += s.Rect().Area()
		}
	}
	if total != want {
		t.Errorf("tile areas sum %d != segment areas %d", total, want)
	}
	// Against direct per-tile intersection.
	for i := 0; i < d.NX; i++ {
		for j := 0; j < d.NY; j++ {
			if got, direct := areas[i][j], l.FeatureAreaInRect(0, d.TileRect(i, j)); got != direct {
				t.Errorf("tile (%d,%d): %d != %d", i, j, got, direct)
			}
		}
	}
}

func TestFillSetTileAreas(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 8000, Y2: 8000}
	g, _ := NewSiteGrid(die, FillRule{Feature: 300, Gap: 100})
	d, err := NewDissection(die, 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs := &FillSet{Grid: g, Layer: 0, Fills: []Fill{{0, 0}, {1, 1}, {10, 10}}}
	areas := fs.TileFillAreas(d)
	var total int64
	for i := range areas {
		for j := range areas[i] {
			total += areas[i][j]
		}
	}
	if total != 3*300*300 {
		t.Errorf("tile fill areas sum %d != %d", total, 3*300*300)
	}
	// Site (10,10) starts at 4000,4000 -> tile (2,2).
	if areas[2][2] != 300*300 {
		t.Errorf("tile (2,2) fill = %d, want %d", areas[2][2], 300*300)
	}
}

func TestHLines(t *testing.T) {
	l := simpleLayout()
	l.Nets[0].Segments = append(l.Nets[0].Segments, vseg(500, 2000, 3000, 200))
	lines := l.HLines(0)
	if len(lines) != 2 {
		t.Fatalf("got %d hlines, want 2 (vertical excluded)", len(lines))
	}
	if lines[0].YBot > lines[1].YBot {
		t.Error("hlines not sorted by YBot")
	}
	if lines[0].Ref != (SegRef{Net: 0, Seg: 0}) {
		t.Errorf("ref = %v", lines[0].Ref)
	}
	if lines[0].YBot != 1900 || lines[0].YTop != 2100 {
		t.Errorf("line 0 extent [%d,%d]", lines[0].YBot, lines[0].YTop)
	}
}

func TestSegmentsOnLayer(t *testing.T) {
	l := simpleLayout()
	l.Layers = append(l.Layers, Layer{Name: "m4", Dir: Vertical, Width: 200})
	l.Nets[0].Segments = append(l.Nets[0].Segments, Segment{Layer: 1, A: geom.Point{X: 500, Y: 2000}, B: geom.Point{X: 500, Y: 3000}, Width: 200})
	if got := len(l.SegmentsOnLayer(0)); got != 2 {
		t.Errorf("layer 0 segments = %d, want 2", got)
	}
	if got := len(l.SegmentsOnLayer(1)); got != 1 {
		t.Errorf("layer 1 segments = %d, want 1", got)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0}, {-1, 400, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
