package main

import (
	"context"
	"crypto/sha256"
	"os"
	"testing"

	"pilfill/internal/cluster"
	"pilfill/internal/core"
	"pilfill/internal/scanline"
)

func fileSums(t *testing.T, paths []string) [][sha256.Size]byte {
	t.Helper()
	out := make([][sha256.Size]byte, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sha256.Sum256(data)
	}
	return out
}

// TestInputsDependOnSeedOnly: the same seed gives byte-identical DEF files,
// another seed different ones, for every input family.
func TestInputsDependOnSeedOnly(t *testing.T) {
	for _, family := range []string{familyT3, familyPeriodic, familyJittered} {
		var sums [3][][sha256.Size]byte
		for i, seed := range []int64{7, 7, 8} {
			paths, err := writeInputs(t.TempDir(), family, fullSizes, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			sums[i] = fileSums(t, paths)
		}
		for k := range sums[0] {
			if sums[0][k] != sums[1][k] {
				t.Errorf("%s input %d: seed 7 gave two different DEFs", family, k)
			}
			if sums[0][k] == sums[2][k] {
				t.Errorf("%s input %d: seeds 7 and 8 gave the same DEF", family, k)
			}
		}
		if sums[0][0] == sums[0][1] {
			t.Errorf("%s: pool inputs 0 and 1 are identical", family)
		}
	}
}

// memoHitRatio solves a full-size chip input with ILP-II on a fresh solve
// memo and returns the share of tiles served from it.
func memoHitRatio(t *testing.T, family string) float64 {
	t.Helper()
	paths, err := writeInputs(t.TempDir(), family, fullSizes, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	prep, err := cluster.PrepareChip(chipJob(string(data), fullSizes.gx(family)))
	if err != nil {
		t.Fatal(err)
	}
	if err := prep.Layout.Validate(); err != nil {
		t.Fatal(err)
	}
	o := prep.Job.Options
	eng, err := core.NewEngine(prep.Layout, prep.Dis, prep.Rule, core.Config{
		Def: scanline.DefIII, Seed: o.Seed, NetCap: o.NetCapPS * 1e-12, Workers: 1, Memo: core.NewSolveMemo(),
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := eng.Instances(prep.Budget)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunContext(context.Background(), core.ILPII, inst)
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.MemoHits) / float64(res.MemoHits+res.MemoMisses)
}

// TestChipFamiliesLoadTheMemoAsIntended: the jittered chip bypasses the
// solve memo and the periodic chip is served by it.
func TestChipFamiliesLoadTheMemoAsIntended(t *testing.T) {
	if r := memoHitRatio(t, familyJittered); r >= 0.01 {
		t.Errorf("jittered chip memo hit ratio %.4f, want < 0.01", r)
	}
	if r := memoHitRatio(t, familyPeriodic); r <= 0.99 {
		t.Errorf("periodic chip memo hit ratio %.4f, want > 0.99", r)
	}
}
