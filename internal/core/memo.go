package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// Real layouts have millions of tiles but only a handful of distinct tile
// patterns: standard cells repeat, so the slack-column geometry, cost curves
// and fill budgets repeat with them. SolveMemo memoizes whole tile solves
// behind a content hash of everything the solver reads — the same
// memoization shape as cap.TableCache, one level up — so each unique pattern
// is solved once per process lifetime and every repeat is a copy.
//
// The fingerprint is translation-invariant by construction: it covers the
// per-column capacities, cost curves, scaled resistances and the fill budget,
// but never the tile coordinates, absolute X positions, or free-row lists
// (placement runs per tile on the tile's own instance either way). Net
// indices enter only as ranks among the tile's distinct bounding nets —
// which columns share a net, and the order the per-net cap rows are emitted
// in — so pattern copies whose local nets were created in the same relative
// order hash identically while tiles with different net sharing never do.
//
// The Normal baseline is excluded: its randomness is seeded from (Seed, I, J)
// — deliberately position-dependent — so translated copies of a pattern
// legitimately differ.

// memoKey is the 256-bit content hash of one tile pattern.
type memoKey [sha256.Size]byte

// memoEntry is one cached solve: the assignment plus the deterministic
// by-products a fresh solve would report, replayed on every hit so memo-on
// and memo-off runs stay bit-identical.
type memoEntry struct {
	a           []int
	nodes       int
	pivots      int
	incRepaired bool
	incDropped  bool
}

const memoShards = 16

// SolveMemo is a concurrency-safe memo of per-tile solve results keyed by
// the canonical tile fingerprint. Entries are immutable once stored; lookups
// copy the assignment out, so callers never alias cache state.
type SolveMemo struct {
	shards [memoShards]struct {
		mu sync.RWMutex
		m  map[memoKey]*memoEntry
	}
	hits   atomic.Uint64
	misses atomic.Uint64
	stored atomic.Uint64
}

// SharedSolveMemo is the process-wide memo Engine uses by default, so tile
// patterns are reused across stripes, runs, and sessions.
var SharedSolveMemo = NewSolveMemo()

// NewSolveMemo returns an empty memo.
func NewSolveMemo() *SolveMemo {
	m := &SolveMemo{}
	for i := range m.shards {
		m.shards[i].m = make(map[memoKey]*memoEntry)
	}
	return m
}

func (c *SolveMemo) shard(key memoKey) *struct {
	mu sync.RWMutex
	m  map[memoKey]*memoEntry
} {
	return &c.shards[binary.LittleEndian.Uint64(key[:8])%memoShards]
}

// lookup returns the entry for a key, counting the hit or miss.
func (c *SolveMemo) lookup(key memoKey) *memoEntry {
	s := c.shard(key)
	s.mu.RLock()
	e := s.m[key]
	s.mu.RUnlock()
	if e != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e
}

// store records a solved entry, copying the assignment so cache state never
// aliases a run's slab. A concurrent store of the same key wins the write
// race harmlessly: both entries hold identical results.
func (c *SolveMemo) store(key memoKey, a []int, st solveStats) {
	e := &memoEntry{
		a:           append([]int(nil), a...),
		nodes:       st.nodes,
		pivots:      st.pivots,
		incRepaired: st.incRepaired,
		incDropped:  st.incDropped,
	}
	s := c.shard(key)
	s.mu.Lock()
	if s.m[key] == nil {
		s.m[key] = e
		c.stored.Add(1)
	}
	s.mu.Unlock()
}

// MemoStats is a point-in-time snapshot of a SolveMemo.
type MemoStats struct {
	Hits    uint64
	Misses  uint64
	Stored  uint64
	Entries int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s MemoStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the hit/miss/stored counters and entry count.
func (c *SolveMemo) Stats() MemoStats {
	s := MemoStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Stored: c.stored.Load()}
	for i := range c.shards {
		c.shards[i].mu.RLock()
		s.Entries += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return s
}

// Reset drops every entry and zeroes the counters.
func (c *SolveMemo) Reset() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
		c.shards[i].m = make(map[memoKey]*memoEntry)
		c.shards[i].mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.stored.Store(0)
}

// fingerprintConfig is the slice of Engine.Config the fingerprint must cover
// beyond the instance itself: knobs that change solver behavior but are not
// baked into the cost curves. Process, feature width, grounded-vs-floating
// and activity scaling all reach the solver only through the curves and
// scaled resistances, which the fingerprint serializes directly.
type fingerprintConfig struct {
	method   Method
	nc       *NetCap // the run's per-net cap (GreedyCapped and ILP-II cap rows)
	maxNodes int     // ILPNodeLimit (limits change Feasible-vs-Optimal outcomes)
}

func (e *Engine) fingerprintConfig(method Method, nc *NetCap) fingerprintConfig {
	return fingerprintConfig{
		method:   method,
		nc:       nc,
		maxNodes: e.Cfg.ILPNodeLimit,
	}
}

// fpVersion guards against stale entries if the serialization ever changes
// within a process's lifetime (it cannot today; the byte is cheap insurance).
// v2: a gap-tolerance field joined the config prefix; v3: it left again;
// v4: the scalar net cap became each bounding net's cap; v5: the
// integrality tolerance left the config prefix.
const fpVersion = 5

func fpPutU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func fpPutInt(buf []byte, v int) []byte {
	return fpPutU64(buf, uint64(int64(v)))
}

func fpPutF64(buf []byte, v float64) []byte {
	return fpPutU64(buf, math.Float64bits(v))
}

func fpPutFloats(buf []byte, vs []float64) []byte {
	buf = fpPutInt(buf, len(vs))
	for _, v := range vs {
		buf = fpPutF64(buf, v)
	}
	return buf
}

// fingerprintInstance serializes the solver-visible content of an instance
// into buf (reused across tiles) and hashes it. Every variable-length field
// is length-prefixed, so distinct patterns can never serialize to the same
// bytes by concatenation. netScratch is a reusable int slice for the
// canonical net ranking; both possibly-regrown buffers are returned.
func fingerprintInstance(buf []byte, netScratch []int, in *Instance, fc fingerprintConfig) (memoKey, []byte, []int) {
	buf = buf[:0]
	buf = append(buf, fpVersion, byte(fc.method))
	buf = fpPutInt(buf, fc.maxNodes)
	buf = fpPutInt(buf, in.F)
	buf = fpPutInt(buf, len(in.Columns))

	// Canonical net ids: the rank of each bounding net among the tile's
	// distinct net indices in ascending order. Ascending rank preserves the
	// relative order ILP-II emits its per-net cap rows in, so two tiles hash
	// equal exactly when the solver would walk identical programs.
	nets := netScratch[:0]
	for k := range in.Columns {
		cv := &in.Columns[k]
		if cv.NetLow >= 0 {
			nets = appendNetOnce(nets, cv.NetLow)
		}
		if cv.NetHigh >= 0 {
			nets = appendNetOnce(nets, cv.NetHigh)
		}
	}
	rank := func(net int) int {
		if net < 0 {
			return -1
		}
		for r, n := range nets {
			if n == net {
				return r
			}
		}
		return -1
	}
	// The cap each ranked net carries: a uniform cap and a per-net budget
	// vector both reach the solvers only through budgetFor on the tile's own
	// nets. An uncapped run writes length -1.
	if fc.nc.active() {
		buf = fpPutInt(buf, len(nets))
		for _, net := range nets {
			buf = fpPutF64(buf, fc.nc.budgetFor(net))
		}
	} else {
		buf = fpPutInt(buf, -1)
	}

	for k := range in.Columns {
		cv := &in.Columns[k]
		buf = fpPutInt(buf, cv.MaxM)
		buf = fpPutF64(buf, cv.LinearSlope)
		buf = fpPutInt(buf, rank(cv.NetLow))
		buf = fpPutInt(buf, rank(cv.NetHigh))
		buf = fpPutF64(buf, cv.REffLow)
		buf = fpPutF64(buf, cv.REffHigh)
		buf = fpPutFloats(buf, cv.CostExact)
		buf = fpPutFloats(buf, cv.DeltaC)
	}
	return sha256.Sum256(buf), buf, nets
}

// appendNetOnce inserts net into the ascending slice if absent.
func appendNetOnce(nets []int, net int) []int {
	lo := 0
	hi := len(nets)
	for lo < hi {
		mid := (lo + hi) / 2
		if nets[mid] < net {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nets) && nets[lo] == net {
		return nets
	}
	nets = append(nets, 0)
	copy(nets[lo+1:], nets[lo:])
	nets[lo] = net
	return nets
}
