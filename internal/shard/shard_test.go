package shard

import (
	"math/rand"
	"strings"
	"testing"

	"pilfill/internal/def"
	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/testcases"
)

// TestPartitionExactCover is the decomposition's core property: over random
// grid shapes, every tile is owned by exactly one region, halos are the
// owned rectangle expanded by R-1 clamped to the grid, every halo is at
// least r tiles on a side (so a sub-dissection over it is valid), and the
// region order is the canonical ix-major sequence.
func TestPartitionExactCover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		r := 1 + rng.Intn(5)
		nx := r + rng.Intn(40)
		ny := r + rng.Intn(40)
		gx := 1 + rng.Intn(nx)
		gy := 1 + rng.Intn(ny)
		regions, err := Partition(nx, ny, r, gx, gy)
		if err != nil {
			t.Fatalf("Partition(%d,%d,%d,%d,%d): %v", nx, ny, r, gx, gy, err)
		}
		if len(regions) != gx*gy {
			t.Fatalf("got %d regions, want %d", len(regions), gx*gy)
		}
		owners := make([]int, nx*ny)
		for n, reg := range regions {
			if reg.Index != n || reg.Index != reg.IX*gy+reg.IY {
				t.Fatalf("region %d has Index %d (ix %d, iy %d)", n, reg.Index, reg.IX, reg.IY)
			}
			o, h := reg.Owned, reg.Halo
			wantHalo := TileRect{
				I0: max(0, o.I0-(r-1)), J0: max(0, o.J0-(r-1)),
				I1: min(nx, o.I1+(r-1)), J1: min(ny, o.J1+(r-1)),
			}
			if h != wantHalo {
				t.Fatalf("region %s halo = %s, want %s", o, h, wantHalo)
			}
			if h.I1-h.I0 < r || h.J1-h.J0 < r {
				t.Fatalf("region %s halo %s smaller than r=%d", o, h, r)
			}
			for i := o.I0; i < o.I1; i++ {
				for j := o.J0; j < o.J1; j++ {
					owners[i*ny+j]++
				}
			}
		}
		for tt, c := range owners {
			if c != 1 {
				t.Fatalf("nx=%d ny=%d r=%d gx=%d gy=%d: tile (%d,%d) owned %d times",
					nx, ny, r, gx, gy, tt/ny, tt%ny, c)
			}
		}
	}
}

// TestPlanJobs exercises the geometry side on a real chip layout: stripe
// sub-layouts validate and parse back, offsets map stripe coordinates onto
// the chip's site and tile grids, budgets are extracted row-major, and the
// content hash is deterministic and sensitive to the budget.
func TestPlanJobs(t *testing.T) {
	spec := testcases.Chip(3, 4)
	l, err := testcases.GenerateChip(spec)
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	dis, err := layout.NewDissection(l.Die, 12800, 4)
	if err != nil {
		t.Fatalf("NewDissection: %v", err)
	}
	rule := spec.Rule
	plan, err := NewPlan(l, dis, rule, 0, 3, 2)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	budget := make(density.Budget, dis.NX)
	for i := range budget {
		budget[i] = make([]int, dis.NY)
		for j := range budget[i] {
			budget[i][j] = i*100 + j
		}
	}
	jobs, err := plan.Jobs(budget)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != 6 {
		t.Fatalf("got %d jobs, want 6", len(jobs))
	}
	pitch := rule.Pitch()
	seen := map[string]bool{}
	for _, jb := range jobs {
		sub, _, err := def.Parse(strings.NewReader(jb.DEF))
		if err != nil {
			t.Fatalf("region %s DEF: %v", jb.Region.Owned, err)
		}
		if sub.Die.Y1 != l.Die.Y1 || sub.Die.Y2 != l.Die.Y2 {
			t.Fatalf("stripe %s is not full height: %v", jb.Region.Owned, sub.Die)
		}
		if (sub.Die.X1-l.Die.X1)%dis.Tile != 0 {
			t.Fatalf("stripe X origin %d not tile-aligned", sub.Die.X1)
		}
		if want := int((sub.Die.X1 - l.Die.X1) / dis.Tile); jb.TileOffI != want {
			t.Fatalf("TileOffI = %d, want %d", jb.TileOffI, want)
		}
		if want := int((sub.Die.X1 - l.Die.X1) / pitch); jb.ColOff != want {
			t.Fatalf("ColOff = %d, want %d", jb.ColOff, want)
		}
		// The stripe must contain the halo: a dissection over it reaches
		// every owned tile.
		subDis, err := layout.NewDissection(sub.Die, 12800, 4)
		if err != nil {
			t.Fatalf("stripe dissection: %v", err)
		}
		h := jb.Region.Halo
		if jb.TileOffI > h.I0 || jb.TileOffI+subDis.NX < h.I1 {
			t.Fatalf("stripe tiles [%d,%d) do not cover halo %s",
				jb.TileOffI, jb.TileOffI+subDis.NX, h)
		}
		o := jb.Region.Owned
		for i := o.I0; i < o.I1; i++ {
			for j := o.J0; j < o.J1; j++ {
				if got := jb.BudgetAt(i, j); got != budget[i][j] {
					t.Fatalf("region %s budget at (%d,%d) = %d, want %d", o, i, j, got, budget[i][j])
				}
			}
		}
		if seen[jb.Hash] {
			t.Fatalf("duplicate content hash %s", jb.Hash)
		}
		seen[jb.Hash] = true
	}

	// Determinism and sensitivity: same inputs, same hashes; a one-feature
	// budget change flips only that region's hash.
	jobs2, err := plan.Jobs(budget)
	if err != nil {
		t.Fatal(err)
	}
	for n := range jobs {
		if jobs[n].Hash != jobs2[n].Hash {
			t.Fatalf("hash not deterministic for region %s", jobs[n].Region.Owned)
		}
	}
	budget[0][0]++
	jobs3, err := plan.Jobs(budget)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for n := range jobs {
		if jobs[n].Hash != jobs3[n].Hash {
			changed++
			if !jobs[n].Region.Owned.Contains(0, 0) {
				t.Fatalf("budget change at (0,0) flipped hash of region %s", jobs[n].Region.Owned)
			}
		}
	}
	if changed != 1 {
		t.Fatalf("budget change flipped %d hashes, want 1", changed)
	}
}

// TestMaskedBudget checks the single-process reference masking: owned tiles
// keep their budget, everything else is zero, and the input is not mutated.
func TestMaskedBudget(t *testing.T) {
	b := density.Budget{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	m := MaskedBudget(b, TileRect{I0: 1, J0: 0, I1: 3, J1: 2})
	want := density.Budget{{0, 0, 0}, {4, 5, 0}, {7, 8, 0}}
	for i := range want {
		for j := range want[i] {
			if m[i][j] != want[i][j] {
				t.Fatalf("masked[%d][%d] = %d, want %d", i, j, m[i][j], want[i][j])
			}
		}
	}
	if b[0][0] != 1 || b[2][2] != 9 {
		t.Fatal("MaskedBudget mutated its input")
	}
}
