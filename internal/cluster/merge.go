// merge.go is the gather: fold per-region RegionPayloads into one whole-chip
// report under the instance-order reduction contract (DESIGN.md §10/§12).
// Region results are merged in canonical region-index order — the same order
// a single-process run visits the regions — and every float accumulation
// happens in that fixed order, so the merged subtotals are bit-identical to
// the single-process aggregation of the same per-region results.
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"pilfill/internal/server"
)

// MergedReport is the gathered whole-chip result. Its hashes (FNV-1a over
// the fill stream in server.FillHasher's layout, FNV-1a over per-net delay
// bits in net order) make bit-identity with a single-process run checkable
// by string comparison.
type MergedReport struct {
	// Method is the placement method, canonical spelling.
	Method string `json:"method"`
	// Regions is how many region payloads were merged.
	Regions int `json:"regions"`

	Tiles     int `json:"tiles"`
	Requested int `json:"requested"`
	Placed    int `json:"placed"`
	ILPNodes  int `json:"ilp_nodes,omitempty"`
	LPPivots  int `json:"lp_pivots,omitempty"`
	Repaired  int `json:"incumbents_repaired,omitempty"`
	Dropped   int `json:"incumbents_dropped,omitempty"`

	// Unweighted/Weighted are the chip's added-delay totals in seconds,
	// accumulated region by region in region-index order.
	Unweighted float64 `json:"unweighted"`
	Weighted   float64 `json:"weighted"`

	// FillCount/FillHash cover the concatenated fill stream (region order,
	// placement order within a region); PerNetHash covers every net's delay
	// bits in chip net order, zeros included.
	FillCount  int    `json:"fill_count"`
	FillHash   string `json:"fill_hash"`
	PerNetHash string `json:"per_net_hash"`

	// PerNet holds each net's added delay in seconds, indexed like NetNames.
	PerNet   []float64 `json:"-"`
	NetNames []string  `json:"-"`
	// Fills is the merged fill stream in chip site coordinates. Omitted from
	// JSON (it can be millions of sites); the hash above identifies it.
	Fills [][2]int `json:"-"`

	// BudgetAchievedMin echoes the FFT budgeting pass's achieved minimum
	// effective density, when the caller ran one.
	BudgetAchievedMin float64 `json:"budget_achieved_min,omitempty"`
}

// MergeRegions folds region payloads — ordered by region index — into a
// MergedReport. netNames is the chip's net order; per-net subtotals arrive
// keyed by name (stripe-local indices differ across regions) and are
// re-indexed onto it. A net touched by several regions accumulates in region
// order, matching the single-process masked-budget aggregation.
func MergeRegions(netNames []string, regions []*server.RegionPayload) (*MergedReport, error) {
	rep := &MergedReport{
		Regions:  len(regions),
		NetNames: netNames,
		PerNet:   make([]float64, len(netNames)),
	}
	netIdx := make(map[string]int, len(netNames))
	for i, n := range netNames {
		netIdx[n] = i
	}
	fh := server.NewFillHasher()
	for n, rp := range regions {
		if rp == nil {
			return nil, fmt.Errorf("cluster: merge: region %d payload missing", n)
		}
		rep.Tiles += rp.Tiles
		rep.Requested += rp.Requested
		rep.Placed += rp.Placed
		rep.ILPNodes += rp.ILPNodes
		rep.LPPivots += rp.LPPivots
		rep.Repaired += rp.Repaired
		rep.Dropped += rp.Dropped
		rep.Unweighted += rp.Unweighted
		rep.Weighted += rp.Weighted
		for name, v := range rp.PerNet {
			i, ok := netIdx[name]
			if !ok {
				return nil, fmt.Errorf("cluster: merge: region %s reports unknown net %q", rp.ID, name)
			}
			rep.PerNet[i] += v
		}
		// Verify the worker's own hash over its slice of the stream before
		// folding it in: a corrupted or mis-offset payload fails loudly here
		// instead of surfacing as a whole-chip hash mismatch.
		sub := server.NewFillHasher()
		for _, f := range rp.Fills {
			sub.Add(f[0], f[1])
			fh.Add(f[0], f[1])
		}
		if got := sub.Sum(); got != rp.FillHash {
			return nil, fmt.Errorf("cluster: merge: region %s fill hash %s does not match its fills (%s)", rp.ID, rp.FillHash, got)
		}
		rep.Fills = append(rep.Fills, rp.Fills...)
	}
	rep.FillCount = fh.Count()
	rep.FillHash = fh.Sum()
	rep.PerNetHash = perNetHash(rep.PerNet)
	return rep, nil
}

// perNetHash is the per-net delay hash: FNV-1a over each net's float64
// bit pattern (little-endian) in net order, zeros included.
func perNetHash(perNet []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range perNet {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
