package cluster

import (
	"encoding/json"
	"testing"

	"pilfill/internal/server"
)

// mergeInput is FuzzMergeRegions' payload: the chip's net order and the
// region payloads as a worker's JSON would carry them.
type mergeInput struct {
	Nets    []string                `json:"nets"`
	Regions []*server.RegionPayload `json:"regions"`
}

// hashedRegion is a region payload whose fill hash matches its fills.
func hashedRegion(id string, tiles int, perNet map[string]float64, fills [][2]int) *server.RegionPayload {
	fh := server.NewFillHasher()
	for _, f := range fills {
		fh.Add(f[0], f[1])
	}
	return &server.RegionPayload{ID: id, Tiles: tiles, Requested: len(fills), Placed: len(fills),
		Unweighted: 1e-15, Weighted: 2e-15, PerNet: perNet, Fills: fills, FillHash: fh.Sum()}
}

// FuzzMergeRegions feeds arbitrary JSON-decoded region payloads to
// MergeRegions. Nothing may panic: a missing region, an unknown net or a
// fill hash that does not match its fills is an error. A merge that
// succeeds must count every region's fills and tiles, and merging the same
// payloads again must give the same hashes.
func FuzzMergeRegions(f *testing.F) {
	nets := []string{"a", "b", "c"}
	valid := []*server.RegionPayload{
		hashedRegion("r0", 4, map[string]float64{"a": 1e-16, "b": 3e-17}, [][2]int{{1, 2}, {3, 4}}),
		hashedRegion("r1", 2, map[string]float64{"b": 5e-17}, [][2]int{{-1, 7}}),
	}
	bad := hashedRegion("r2", 1, nil, [][2]int{{0, 0}})
	bad.FillHash = "0000000000000000"
	for _, in := range []mergeInput{
		{Nets: nets, Regions: valid},
		{Nets: nets, Regions: []*server.RegionPayload{valid[0], nil}},
		{Nets: nets[:1], Regions: valid},
		{Nets: nets, Regions: []*server.RegionPayload{bad}},
		{},
	} {
		b, err := json.Marshal(in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var in mergeInput
		if json.Unmarshal(body, &in) != nil {
			return
		}
		rep, err := MergeRegions(in.Nets, in.Regions)
		if err != nil {
			return
		}
		fills, tiles := 0, 0
		for _, rp := range in.Regions {
			fills += len(rp.Fills)
			tiles += rp.Tiles
		}
		if rep.FillCount != fills || len(rep.Fills) != fills || rep.Tiles != tiles || rep.Regions != len(in.Regions) {
			t.Fatalf("merged %d regions into %d fills (%d listed), %d tiles; payloads hold %d fills, %d tiles",
				rep.Regions, rep.FillCount, len(rep.Fills), rep.Tiles, fills, tiles)
		}
		again, err := MergeRegions(in.Nets, in.Regions)
		if err != nil || again.FillHash != rep.FillHash || again.PerNetHash != rep.PerNetHash {
			t.Fatalf("second merge: %v, hashes %s/%s, first %s/%s", err, again.FillHash, again.PerNetHash, rep.FillHash, rep.PerNetHash)
		}
	})
}
