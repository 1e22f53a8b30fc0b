// Package density implements fixed-dissection layout density analysis and
// the density-driven per-tile fill budgeting of Chen, Kahng, Robins and
// Zelikovsky ("Dummy Fill Synthesis for Uniform Layout Density", TCAD 2002)
// — the "normal fill" baseline of the PIL-Fill paper. MonteCarlo is the
// randomized greedy budgeter that repeatedly adds one fill feature to a slack
// tile of the currently emptiest window; FFTBudget is the effective-density
// budgeter of the chip-scale path.
//
// Both return the same artifact — the number of fill features each tile must
// receive — which the PIL-Fill methods then place. Density quality depends
// only on the budget, so every placement method in internal/core achieves
// identical density control by construction.
package density

import (
	"fmt"
	"math"
	"math/rand"

	"pilfill/internal/layout"
)

// Grid aggregates per-tile feature area and fill slack for one layer.
type Grid struct {
	D           *layout.Dissection
	TileArea    [][]int64 // drawn feature area per tile [i][j]
	TileSlack   [][]int   // free fill sites per tile [i][j]
	FeatureArea int64     // drawn area of one fill feature
}

// NewGrid computes the density grid for a layer: tile feature areas from the
// layout and per-tile slack from the occupancy map (a site belongs to the
// tile containing its center).
func NewGrid(l *layout.Layout, d *layout.Dissection, occ *layout.Occupancy, layer int) *Grid {
	g := &Grid{
		D:           d,
		TileArea:    l.TileFeatureAreas(layer, d),
		FeatureArea: occ.Grid.Rule.Feature * occ.Grid.Rule.Feature,
	}
	g.TileSlack = make([][]int, d.NX)
	for i := range g.TileSlack {
		g.TileSlack[i] = make([]int, d.NY)
	}
	sg := occ.Grid
	f := sg.Rule.Feature
	for c := 0; c < sg.Cols; c++ {
		for r := 0; r < sg.Rows; r++ {
			if occ.Blocked(c, r) {
				continue
			}
			cx := sg.SiteX(c) + f/2
			cy := sg.SiteY(r) + f/2
			if !d.Die.Contains(cx, cy) {
				continue
			}
			i, j := d.TileIndex(cx, cy)
			g.TileSlack[i][j]++
		}
	}
	return g
}

// Budget is the number of fill features required in each tile [i][j].
type Budget [][]int

// NewBudget allocates a zero budget for the grid.
func (g *Grid) NewBudget() Budget {
	b := make(Budget, g.D.NX)
	for i := range b {
		b[i] = make([]int, g.D.NY)
	}
	return b
}

// Total returns the total number of features in the budget.
func (b Budget) Total() int {
	n := 0
	for i := range b {
		for j := range b[i] {
			n += b[i][j]
		}
	}
	return n
}

// Clone deep-copies the budget.
func (b Budget) Clone() Budget {
	out := make(Budget, len(b))
	for i := range b {
		out[i] = append([]int(nil), b[i]...)
	}
	return out
}

// WindowDensity returns the density of the window with origin tile (i, j)
// given an optional fill budget (nil means no fill).
func (g *Grid) WindowDensity(i, j int, fill Budget) float64 {
	win := g.D.WindowRect(i, j)
	var area int64
	for di := 0; di < g.D.R; di++ {
		for dj := 0; dj < g.D.R; dj++ {
			ti, tj := i+di, j+dj
			if ti >= g.D.NX || tj >= g.D.NY {
				continue
			}
			area += g.TileArea[ti][tj]
			if fill != nil {
				area += int64(fill[ti][tj]) * g.FeatureArea
			}
		}
	}
	return float64(area) / float64(win.Area())
}

// Stats returns the minimum and maximum window density under a fill budget.
func (g *Grid) Stats(fill Budget) (minD, maxD float64) {
	wx, wy := g.D.NumWindows()
	minD, maxD = math.Inf(1), math.Inf(-1)
	for i := 0; i < wx; i++ {
		for j := 0; j < wy; j++ {
			d := g.WindowDensity(i, j, fill)
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	return minD, maxD
}

// StatsWithAreas returns min/max window density when the added fill is given
// as an exact per-tile area map (e.g. layout.FillSet.TileFillAreas) instead
// of a feature-count budget.
func (g *Grid) StatsWithAreas(fillAreas [][]int64) (minD, maxD float64) {
	wx, wy := g.D.NumWindows()
	minD, maxD = math.Inf(1), math.Inf(-1)
	for i := 0; i < wx; i++ {
		for j := 0; j < wy; j++ {
			win := g.D.WindowRect(i, j)
			var area int64
			for di := 0; di < g.D.R; di++ {
				for dj := 0; dj < g.D.R; dj++ {
					ti, tj := i+di, j+dj
					if ti >= g.D.NX || tj >= g.D.NY {
						continue
					}
					area += g.TileArea[ti][tj]
					if fillAreas != nil {
						area += fillAreas[ti][tj]
					}
				}
			}
			d := float64(area) / float64(win.Area())
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	return minD, maxD
}

// MonteCarloOptions tunes the randomized budgeter.
type MonteCarloOptions struct {
	// TargetMin is the window density the budgeter tries to lift every
	// window to. Use a value <= the achievable maximum; MaxMinDensity
	// estimates it.
	TargetMin float64
	// MaxDensity is the upper window density bound U; adding fill never
	// pushes any window above it. <= 0 disables the bound.
	MaxDensity float64
	// Seed makes runs reproducible.
	Seed int64
}

// MonteCarlo computes a per-tile fill budget by repeatedly choosing the
// lowest-density window and adding one feature to a random slack tile inside
// it (weighted by remaining slack), subject to the upper density bound.
// It stops when every window reaches TargetMin or no legal insertion can
// improve the emptiest window, and returns the budget with the achieved
// minimum density.
func MonteCarlo(g *Grid, opts MonteCarloOptions) (Budget, float64, error) {
	if opts.TargetMin <= 0 {
		return nil, 0, fmt.Errorf("density: TargetMin = %g", opts.TargetMin)
	}
	budget, achieved := monteCarlo(g, opts, nil)
	return budget, achieved, nil
}

// MaxMinDensity estimates the best achievable minimum window density by
// running the budgeter with an unreachable target and reporting what it
// attains. Useful for picking a realistic TargetMin.
func MaxMinDensity(g *Grid, maxDensity float64, seed int64) (float64, error) {
	_, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 1.0, MaxDensity: maxDensity, Seed: seed})
	return achieved, err
}

// MaxMinBudget probes the best reachable minimum density as MaxMinDensity
// does and budgets to it as MonteCarlo with that TargetMin does, returning
// the budget and the probed density, from a single budgeter run. Under one
// seed the budget run is an exact prefix of the probe's run: the emptiest
// live window's density never falls, and a run stops at the first one at or
// above its target. So the probe logs its insertions and the budget replays
// those made below the probed density.
func MaxMinBudget(g *Grid, maxDensity float64, seed int64) (Budget, float64, error) {
	var log []insertion
	_, achieved := monteCarlo(g, MonteCarloOptions{TargetMin: 1.0, MaxDensity: maxDensity, Seed: seed}, &log)
	if achieved <= 0 {
		return nil, 0, fmt.Errorf("density: TargetMin = %g", achieved)
	}
	budget := g.NewBudget()
	for _, e := range log {
		if e.minD >= achieved {
			break
		}
		budget[e.tile/g.D.NY][e.tile%g.D.NY]++
	}
	return budget, achieved, nil
}

// insertion is one feature the budgeter added: the density of the window it
// was lifting and the flat index i·NY + j of the tile that received it.
type insertion struct {
	minD float64
	tile int
}

// monteCarlo runs the budgeter, appending every insertion to log when it is
// non-nil. Windows and tiles are flat row-major indices (i·wy + j, i·NY + j).
func monteCarlo(g *Grid, opts MonteCarloOptions, log *[]insertion) (Budget, float64) {
	rng := rand.New(rand.NewSource(opts.Seed))
	r, ny := g.D.R, g.D.NY
	wx, wy := g.D.NumWindows()
	nw := wx * wy
	budget := g.NewBudget()
	slack := make([]int, 0, g.D.NX*ny)
	for i := range g.TileSlack {
		slack = append(slack, g.TileSlack[i]...)
	}

	// Window state in exact integers: the drawn base area and the number of
	// fill features added so far. Densities are derived as
	// (base + count·featureArea)/windowArea — one division from exact
	// integers — instead of incrementally accumulating float deltas, whose
	// rounding drift compounds over millions of insertions until the budgeter
	// both overshoots MaxDensity and mis-ranks the emptiest window.
	base := make([]int64, nw)
	cnt := make([]int64, nw)
	area := make([]int64, nw)
	// full[w]: one more feature in window w would push it over MaxDensity.
	// blocked[t]: some window covering tile t is full. Both only ever turn
	// on, since counts only rise, so they replace re-checking every covering
	// window of every candidate tile.
	full := make([]bool, nw)
	blocked := make([]bool, len(slack))
	setFull := func(w int) {
		if opts.MaxDensity > 0 && !full[w] &&
			float64(base[w]+(cnt[w]+1)*g.FeatureArea)/float64(area[w]) > opts.MaxDensity {
			full[w] = true
			wi, wj := w/wy, w%wy
			for ti := wi; ti < wi+r; ti++ {
				for tj := wj; tj < wj+r; tj++ {
					blocked[ti*ny+tj] = true
				}
			}
		}
	}
	h := &windowHeap{heap: make([]int, nw), pos: make([]int, nw), dens: make([]float64, nw)}
	for w := range nw {
		wi, wj := w/wy, w%wy
		for ti := wi; ti < wi+r; ti++ {
			for tj := wj; tj < wj+r; tj++ {
				base[w] += g.TileArea[ti][tj]
			}
		}
		area[w] = g.D.WindowRect(wi, wj).Area()
		h.dens[w] = float64(base[w]) / float64(area[w])
		h.heap[w], h.pos[w] = w, w
		setFull(w)
	}
	for i := nw/2 - 1; i >= 0; i-- {
		h.down(i)
	}

	var cands []int
	for len(h.heap) > 0 {
		// The emptiest live window; the heap key (density, index) picks the
		// one a row-major scan for the strictly smallest density would.
		w := h.heap[0]
		if !(h.dens[w] < opts.TargetMin) {
			break // every live window is at or above target
		}
		// Candidate tiles: slack tiles in this window whose insertion does
		// not push any covering window over MaxDensity.
		cands = cands[:0]
		total := 0
		wi, wj := w/wy, w%wy
		for ti := wi; ti < wi+r; ti++ {
			for tj := wj; tj < wj+r; tj++ {
				if t := ti*ny + tj; slack[t] > 0 && !blocked[t] {
					cands = append(cands, t)
					total += slack[t]
				}
			}
		}
		if len(cands) == 0 {
			h.pop() // the window cannot be improved further
			continue
		}
		pick := rng.Intn(total)
		var t int
		for _, t = range cands {
			if pick < slack[t] {
				break
			}
			pick -= slack[t]
		}
		if log != nil {
			*log = append(*log, insertion{h.dens[w], t})
		}
		ti, tj := t/ny, t%ny
		budget[ti][tj]++
		slack[t]--
		// Every window covering the tile: the count rises, so its key only
		// needs a sift down.
		for vi := max(ti-r+1, 0); vi <= ti && vi < wx; vi++ {
			for vj := max(tj-r+1, 0); vj <= tj && vj < wy; vj++ {
				v := vi*wy + vj
				cnt[v]++
				h.dens[v] = float64(base[v]+cnt[v]*g.FeatureArea) / float64(area[v])
				setFull(v)
				if p := h.pos[v]; p >= 0 {
					h.down(p)
				}
			}
		}
	}

	achieved := math.Inf(1)
	for _, d := range h.dens {
		if d < achieved {
			achieved = d
		}
	}
	return budget, achieved
}

// windowHeap is an indexed binary min-heap of the live windows keyed on
// (dens[w], w). pos[w] is w's slot in heap, or -1 once w is popped. Keys only
// rise, so restoring the heap after an update needs only a sift down.
type windowHeap struct {
	heap, pos []int
	dens      []float64
}

func (h *windowHeap) less(a, b int) bool {
	return h.dens[a] < h.dens[b] || h.dens[a] == h.dens[b] && a < b
}

func (h *windowHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]], h.pos[h.heap[j]] = i, j
}

func (h *windowHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			return
		}
		if c+1 < len(h.heap) && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], h.heap[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// pop removes the top window.
func (h *windowHeap) pop() {
	last := len(h.heap) - 1
	h.swap(0, last)
	h.pos[h.heap[last]] = -1
	h.heap = h.heap[:last]
	h.down(0)
}
