// progress.go is the live-progress feed of a running job: the engine's
// per-tile completion hook (core.Config.OnTile) increments a tracker whose
// snapshots are published through the job queue (jobqueue.PublishProgress)
// and served at GET /v1/jobs/{id}/progress — the worker half of the
// cluster's chip-progress aggregation.
package server

import (
	"sync"

	"pilfill/internal/core"
	"pilfill/internal/jobqueue"
	"pilfill/internal/obs"
)

// ProgressPayload is a point-in-time snapshot of a running job's solve
// progress. TilesTotal is the number of tile instances the run will solve
// (0 while unknown — before the prepare phase finishes); TilesDone only
// ever grows.
type ProgressPayload struct {
	TilesDone  int    `json:"tiles_done"`
	TilesTotal int    `json:"tiles_total,omitempty"`
	Phase      string `json:"phase,omitempty"`
	MemoHits   int    `json:"memo_hits,omitempty"`
	ILPNodes   int64  `json:"ilp_nodes,omitempty"`
	LPPivots   int64  `json:"lp_pivots,omitempty"`
}

// progressTracker accumulates tile-completion events and publishes immutable
// snapshots. The OnTile callback runs on concurrent solve workers, so all
// state is mutex-guarded; each publish hands the queue a fresh value.
type progressTracker struct {
	ctxPublish func(v any) // bound jobqueue publisher
	counter    *obs.Counter

	mu    sync.Mutex
	cur   ProgressPayload
	phase string
}

// newProgressTracker builds a tracker that publishes into the job whose run
// context is ctx-bound via publish, and bumps the optional Prometheus tiles
// counter on every event.
func newProgressTracker(publish func(v any), counter *obs.Counter) *progressTracker {
	return &progressTracker{ctxPublish: publish, counter: counter}
}

// setTotal records the authoritative tile count once instances are built.
func (p *progressTracker) setTotal(total int) {
	p.mu.Lock()
	p.cur.TilesTotal = total
	snap := p.cur
	p.mu.Unlock()
	p.publish(snap)
}

// setPhase mirrors the queue's coarse phase into the snapshot.
func (p *progressTracker) setPhase(phase string) {
	p.mu.Lock()
	p.cur.Phase = phase
	snap := p.cur
	p.mu.Unlock()
	p.publish(snap)
}

// onTile is the core.Config.OnTile callback.
func (p *progressTracker) onTile(ev core.TileEvent) {
	p.mu.Lock()
	p.cur.TilesDone++
	if ev.MemoHit {
		p.cur.MemoHits++
	}
	p.cur.ILPNodes += int64(ev.Nodes)
	p.cur.LPPivots += int64(ev.LPPivots)
	snap := p.cur
	p.mu.Unlock()
	if p.counter != nil {
		p.counter.Inc()
	}
	p.publish(snap)
}

func (p *progressTracker) publish(snap ProgressPayload) {
	if p.ctxPublish != nil {
		p.ctxPublish(&snap)
	}
}

// progressSetPhase wraps the queue's setPhase so every coarse phase change
// also lands in the published progress snapshot.
func (p *progressTracker) wrapSetPhase(setPhase func(string)) func(string) {
	return func(phase string) {
		setPhase(phase)
		p.setPhase(phase)
	}
}

// progressOf extracts the published snapshot from a queue snapshot (nil when
// the job has not published any).
func progressOf(snap jobqueue.Snapshot) *ProgressPayload {
	if pp, ok := snap.Progress.(*ProgressPayload); ok {
		return pp
	}
	return nil
}
