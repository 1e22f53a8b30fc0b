package core

import (
	"math/rand"
	"sync"
	"testing"

	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/scanline"
	"pilfill/internal/testcases"
)

// fpColumn builds a synthetic attributed column for fingerprint tests.
func fpColumn(maxM, netLow, netHigh int, rl, rh, scale float64) ColumnVar {
	n := maxM + 1
	cost := make([]float64, n)
	dc := make([]float64, n)
	for m := 1; m < n; m++ {
		dc[m] = scale * float64(m*m) * 1e-18
		cost[m] = dc[m] * (rl + rh)
	}
	return ColumnVar{
		MaxM: maxM, CostExact: cost, DeltaC: dc, LinearSlope: scale,
		NetLow: netLow, NetHigh: netHigh, REffLow: rl, REffHigh: rh,
	}
}

func fpKey(t *testing.T, in *Instance, method Method) memoKey {
	t.Helper()
	key, _, _ := fingerprintInstance(nil, nil, in, fingerprintConfig{method: method})
	return key
}

func TestFingerprintTranslationInvariant(t *testing.T) {
	// Two copies of the same tile pattern at different positions, with
	// different absolute net indices (same relative order) and different
	// site columns and rows, must hash identically: position is exactly what
	// the memo abstracts away.
	a := &Instance{I: 0, J: 0, F: 3, Columns: []ColumnVar{
		fpColumn(3, 2, 5, 100, 200, 1.5),
		fpColumn(2, 5, -1, 200, 0, 0.5),
	}}
	a.Columns[0].Col = &scanline.Column{Col: 4, RowLo: 3, RowHi: 6}
	b := &Instance{I: 7, J: 11, F: 3, Columns: []ColumnVar{
		fpColumn(3, 12, 15, 100, 200, 1.5),
		fpColumn(2, 15, -1, 200, 0, 0.5),
	}}
	b.Columns[0].Col = &scanline.Column{Col: 90, RowLo: 89, RowHi: 92}
	if fpKey(t, a, ILPII) != fpKey(t, b, ILPII) {
		t.Error("translated pattern copies hash differently")
	}

	// Same geometry but different net sharing (column 1 bound by a new net
	// rather than column 0's) must hash differently: the per-net cap rows
	// would differ.
	c := &Instance{I: 0, J: 0, F: 3, Columns: []ColumnVar{
		fpColumn(3, 2, 5, 100, 200, 1.5),
		fpColumn(2, 7, -1, 200, 0, 0.5),
	}}
	if fpKey(t, a, ILPII) == fpKey(t, c, ILPII) {
		t.Error("different net sharing hashes equal")
	}

	// Any cost-curve change must change the key.
	d := &Instance{I: 0, J: 0, F: 3, Columns: []ColumnVar{
		fpColumn(3, 2, 5, 100, 200, 1.5),
		fpColumn(2, 5, -1, 200, 0, 0.5),
	}}
	d.Columns[1].CostExact[1] *= 1.0000001
	if fpKey(t, a, ILPII) == fpKey(t, d, ILPII) {
		t.Error("perturbed cost curve hashes equal")
	}

	// Different methods and different budgets must never share a key.
	if fpKey(t, a, ILPII) == fpKey(t, a, Greedy) {
		t.Error("methods share a key")
	}
	e := &Instance{I: 0, J: 0, F: 2, Columns: a.Columns}
	if fpKey(t, a, ILPII) == fpKey(t, e, ILPII) {
		t.Error("budgets share a key")
	}
}

func TestFingerprintNoCollisions(t *testing.T) {
	// 500 structurally random instances: every key distinct. Each instance
	// embeds fresh random curves, so a collision would mean the serialization
	// conflates distinct patterns.
	rng := rand.New(rand.NewSource(17))
	seen := make(map[memoKey]int)
	for trial := 0; trial < 500; trial++ {
		cols := 1 + rng.Intn(6)
		in := &Instance{I: rng.Intn(10), J: rng.Intn(10)}
		for c := 0; c < cols; c++ {
			maxM := 1 + rng.Intn(4)
			netLow, netHigh := rng.Intn(8), -1
			if rng.Intn(2) == 0 {
				netHigh = rng.Intn(8)
			}
			in.Columns = append(in.Columns,
				fpColumn(maxM, netLow, netHigh, 50+900*rng.Float64(), 50+900*rng.Float64(), rng.Float64()))
		}
		in.F = rng.Intn(in.TotalCapacity() + 1)
		key := fpKey(t, in, ILPII)
		if prev, dup := seen[key]; dup {
			t.Fatalf("trial %d collides with trial %d", trial, prev)
		}
		seen[key] = trial
	}
}

func TestMemoSecondRunAllHits(t *testing.T) {
	l, d := smallLayout(t)
	memo := NewSolveMemo()
	eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	_, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	for _, m := range []Method{Greedy, ILPII, DP} {
		memo.Reset()
		cold, err := eng.Run(m, instances)
		if err != nil {
			t.Fatal(err)
		}
		// A cold run may still hit when tiles within the layout repeat a
		// pattern — that's the dedup working — but every tile must consult
		// the memo and at least the first pattern must miss.
		if cold.MemoHits+cold.MemoMisses != cold.Tiles || cold.MemoMisses == 0 {
			t.Errorf("%v cold run: hits %d misses %d over %d tiles", m, cold.MemoHits, cold.MemoMisses, cold.Tiles)
		}
		if s := memo.Stats(); s.Entries != int(s.Stored) || s.Entries == 0 {
			t.Errorf("%v cold run: stats %+v", m, s)
		}
		warm, err := eng.Run(m, instances)
		if err != nil {
			t.Fatal(err)
		}
		if warm.MemoHits != warm.Tiles || warm.MemoMisses != 0 {
			t.Errorf("%v warm run: hits %d misses %d, want %d hits", m, warm.MemoHits, warm.MemoMisses, warm.Tiles)
		}
		requireResultsIdentical(t, m.String()+"/memo-warm", warm, cold)
	}

	// The Normal baseline is position-seeded and must bypass the memo.
	memo.Reset()
	res, err := eng.Run(Normal, instances)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHits != 0 || res.MemoMisses != 0 {
		t.Errorf("Normal touched the memo: hits %d misses %d", res.MemoHits, res.MemoMisses)
	}
	if s := memo.Stats(); s.Hits+s.Misses+s.Stored != 0 {
		t.Errorf("Normal touched the memo: %+v", s)
	}
}

// TestMemoKeyedOnNetCap runs ILP-II over three copies of the cap-violating
// repair tile on one memo: capped, every tile's warm start needs a cap
// repair, the copies dedup to one miss, and a warm run replays the repair
// counter. NetCap is part of the fingerprint, so an uncapped engine on the
// same memo must miss rather than replay the capped entry, and reports no
// repairs. Per-net budget vectors key on each bounding net's cap the same
// way.
func TestMemoKeyedOnNetCap(t *testing.T) {
	l, d := smallLayout(t)
	memo := NewSolveMemo()
	newEng := func(netCap float64) *Engine {
		t.Helper()
		eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, NetCap: netCap, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	const tiles = 3
	instances := placeableRepairTiles(tiles)
	capped := newEng(2e-15)
	cold, err := capped.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	if cold.IncumbentsRepaired != tiles {
		t.Errorf("capped cold run: %d incumbents repaired, want %d", cold.IncumbentsRepaired, tiles)
	}
	if cold.MemoMisses != 1 || cold.MemoHits != tiles-1 {
		t.Errorf("capped cold run: %d misses %d hits, want 1 miss (pattern copies dedup)",
			cold.MemoMisses, cold.MemoHits)
	}
	warm, err := capped.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	if warm.MemoHits != tiles || warm.IncumbentsRepaired != tiles {
		t.Errorf("capped warm run: %d hits, %d incumbents repaired over %d tiles",
			warm.MemoHits, warm.IncumbentsRepaired, tiles)
	}
	requireResultsIdentical(t, "capped memo-warm", warm, cold)

	free, err := newEng(0).Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	if free.MemoMisses != 1 || free.IncumbentsRepaired != 0 {
		t.Errorf("uncapped run on the capped memo: %d misses, %d incumbents repaired; want 1 miss, 0 repaired",
			free.MemoMisses, free.IncumbentsRepaired)
	}

	// Two per-net budget vectors that differ only on net 0 (2e-15 and
	// 1e-15 s per tile after the three-way split): each must miss once on
	// the shared memo rather than replay the other's entry, and replay its
	// own entry on a warm pass.
	vecs := make([][]float64, 2)
	for v := range vecs {
		vecs[v] = make([]float64, len(l.Nets))
		for n := range vecs[v] {
			vecs[v][n] = 1
		}
		vecs[v][0] = tiles * float64(2-v) * 1e-15
	}
	budgeted := newEng(0)
	var coldV [2]*Result
	for pass := 0; pass < 2; pass++ {
		for v, nb := range vecs {
			r, err := budgeted.RunBudgeted(instances, nb)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 {
				coldV[v] = r
				if r.MemoMisses != 1 || r.MemoHits != tiles-1 {
					t.Errorf("budget vector %d cold: %d misses %d hits, want 1 miss", v, r.MemoMisses, r.MemoHits)
				}
				continue
			}
			if r.MemoHits != tiles {
				t.Errorf("budget vector %d warm: %d hits over %d tiles", v, r.MemoHits, tiles)
			}
			requireResultsIdentical(t, "budget vector warm", r, coldV[v])
		}
	}
	if coldV[0].PerNet[0] == coldV[1].PerNet[0] {
		t.Fatal("the two budget vectors place identically; the test cannot tell them apart")
	}
}

func TestMemoOnOffBitIdentical(t *testing.T) {
	l, d := smallLayout(t)
	newEng := func(cfg Config) *Engine {
		t.Helper()
		eng, err := NewEngine(l, d, testRule, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	off := newEng(Config{Layer: 0, Seed: 42, NoSolveMemo: true})
	on := newEng(Config{Layer: 0, Seed: 42, Memo: NewSolveMemo()})
	_, budget := buildEngine(t, false, scanline.DefIII)
	insOff := mustInstances(t, off, budget)
	insOn := mustInstances(t, on, budget)
	type runFunc func(*Engine, []*Instance) (*Result, error)
	runs := map[string]runFunc{
		// Budgets tight enough that some tiles branch and some fall back.
		"RunBudgeted": func(e *Engine, ins []*Instance) (*Result, error) {
			return e.RunBudgeted(ins, e.NetBudgets(0.01, 1e-21))
		},
	}
	for _, m := range []Method{Greedy, ILPI, ILPII, DP, MarginalGreedy, GreedyCapped} {
		runs[m.String()] = func(e *Engine, ins []*Instance) (*Result, error) { return e.Run(m, ins) }
	}
	for name, run := range runs {
		rOff, err := run(off, insOff)
		if err != nil {
			t.Fatal(err)
		}
		if rOff.MemoHits != 0 || rOff.MemoMisses != 0 {
			t.Errorf("%s: memo-off run reports memo traffic", name)
		}
		// Twice with the memo on: cold (stores) then warm (replays).
		for pass := 0; pass < 2; pass++ {
			rOn, err := run(on, insOn)
			if err != nil {
				t.Fatal(err)
			}
			requireResultsIdentical(t, name+"/memo-on", rOn, rOff)
		}
	}
}

// TestChipMemoMissesOncePerPattern solves the 100x100-tile repeating-pattern
// chip (testcases.Chip(25, 100), window 12800 nm, r = 4, elliptic-kernel FFT
// budget to a minimum effective density of 0.3 under a 0.5 cap, ILP-II under
// a 5e-16 s net cap) serially on a fresh memo. Every distinct tile pattern
// must miss exactly once, so the misses equal the stored entries, and the
// tiles must repeat those patterns at least 100 times over. A fingerprint
// that leaves out a solve input either splits one pattern into several
// entries or merges two.
func TestChipMemoMissesOncePerPattern(t *testing.T) {
	spec := testcases.Chip(25, 100)
	l, err := testcases.GenerateChip(spec)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := layout.NewDissection(l.Die, 12800, 4)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSolveMemo()
	eng, err := NewEngine(l, dis, spec.Rule, Config{Seed: 1, NetCap: 5e-16, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	grid := density.NewGrid(l, dis, eng.Occ, 0)
	budget, _, err := density.FFTBudget(grid, density.NewKernel(density.EllipticKernel, 4),
		density.FFTBudgetOptions{TargetMin: 0.3, MaxDensity: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ILPII, mustInstances(t, eng, budget))
	if err != nil {
		t.Fatal(err)
	}
	s := memo.Stats()
	t.Logf("%d tiles, %d misses, %+v", res.Tiles, res.MemoMisses, s)
	if res.MemoMisses != s.Entries || s.Entries == 0 {
		t.Errorf("%d misses for %d stored patterns", res.MemoMisses, s.Entries)
	}
	if res.Tiles < 100*s.Entries {
		t.Errorf("%d tiles repeat %d patterns only %.0f times, want >= 100",
			res.Tiles, s.Entries, float64(res.Tiles)/float64(s.Entries))
	}
}

func TestMemoConcurrentRunsShareMemo(t *testing.T) {
	// Several engines hammering one memo concurrently (exercised under
	// `make race`) must all produce the baseline result.
	l, d := smallLayout(t)
	memo := NewSolveMemo()
	base, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, NoSolveMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	_, budget := buildEngine(t, false, scanline.DefIII)
	want, err := base.Run(ILPII, mustInstances(t, base, budget))
	if err != nil {
		t.Fatal(err)
	}

	const runners = 4
	results := make([]*Result, runners)
	errs := make([]error, runners)
	var wg sync.WaitGroup
	for r := 0; r < runners; r++ {
		eng, err := NewEngine(l, d, testRule, Config{Layer: 0, Seed: 42, Memo: memo, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		instances := mustInstances(t, eng, budget)
		wg.Add(1)
		go func(r int, eng *Engine, instances []*Instance) {
			defer wg.Done()
			results[r], errs[r] = eng.Run(ILPII, instances)
		}(r, eng, instances)
	}
	wg.Wait()
	for r := 0; r < runners; r++ {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		requireResultsIdentical(t, "concurrent", results[r], want)
	}
	if s := memo.Stats(); s.Hits == 0 || s.Entries == 0 {
		t.Errorf("memo never shared: %+v", s)
	}
}
