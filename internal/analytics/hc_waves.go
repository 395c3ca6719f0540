package analytics

import (
	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// The BFS wave schedule. Every BFS in the package — BFS itself, SCC's
// sweeps, the sequential HC loop — is one wave of it, and Harmonic
// Centrality on a deep exchanger runs several. HC runs one full
// distributed BFS per source, and the waves are completely independent
// — yet the sequential loop pays every source the full round-trip
// latency of every BFS level, one after another. With the delta
// exchanger built at depth d (Graph.SetPipeDepth), HC batches sources
// into d/2 concurrent waves that share the pipeline, each keeping its
// discovery-push round and its ghost-refresh round in flight — so the
// pipeline always holds d rounds while each rank sweeps the waves'
// frontiers back to back.
//
// The schedule is a fixed four-phase cycle over the batch's wave slots
// (skipping inactive ones), which keeps the exchanger's FIFO flush
// discipline intact — posts and flushes walk the slots in the same
// order, so the oldest pending round is always the one being settled:
//
//	phase P: per wave — expand boundary frontier, BeginPush the
//	         discoveries, expand interior frontier
//	         (pipeline now holds k refreshes + k pushes = depth rounds)
//	phase F: per wave — FlushValues the wave's refresh from the
//	         PREVIOUS cycle: correct stale ghost copies, read the
//	         wave's termination counter
//	phase M: per wave — FlushPush: merge remote discoveries
//	         first-discovery-wins into the next frontier
//	phase V: per wave — BeginValues the new frontier's levels, with
//	         the frontier size as the round's tally
//
// On the depth-1 bulk engine one wave runs at a time and phase V
// settles its refresh at once: the lock-step BFS round. Every wave's
// rounds are stamped with its slot as the round tag's wave id
// (DeltaExchanger.SetRoundWave), so a skewed schedule panics naming the
// wave and the round. Each wave runs exactly the schedule of a solo
// BFS: same expansion order, same one-cycle ghost staleness, same
// first-discovery-wins merge — so its levels are bit-identical to a
// solo BFS, and because the per-source contributions are accumulated
// in source order after the batch completes, the centralities are
// bit-identical to the sequential loop's float sums at every depth and
// on both engines.
//
// Termination is per wave: the counter a wave's refresh carries is read
// one cycle late on a pipelined exchanger (one trailing empty cycle
// per wave, which expands nothing); the exchanger settles it by
// piggybacked frames on complete rank neighborhoods and by an exact
// Allreduce per round otherwise — wave round counts are identical on
// every rank, so the collective schedule stays agreed. A finished wave
// goes quiet (posts nothing, flushes nothing) while its batch mates
// drain; slots refill only at batch boundaries, which is what keeps
// accumulation order — and therefore the float sums — deterministic.
//
// On complete neighborhoods a wave costs ZERO reductions: unlike the
// sequential loop, which pays one eccentricity Allreduce per source
// inside BFS, multi-wave HC never needs eccentricities at all.

// bfsWave is one BFS wave's private state: its level array, frontier,
// and termination bookkeeping. Waves share the exchanger pipeline but
// nothing else.
type bfsWave struct {
	all      []int64
	frontier []int32
	rd       bfsRound
	tbuf     [1]int64     // per-wave: the refresh aliases it until its flush
	tally    dgraph.Tally // the refresh round's tally over tbuf
	depth    int64
	pendingV bool
	active   bool
	done     bool
}

// reset re-arms the wave for a new source.
func (w *bfsWave) reset(g *dgraph.Graph, src int64) {
	for i := range w.all {
		w.all[i] = -1
	}
	w.frontier = w.frontier[:0]
	if lid, ok := g.G2L[src]; ok {
		w.all[lid] = 0
		if !g.IsGhost(lid) {
			w.frontier = append(w.frontier, lid)
		}
	}
	w.depth = 0
	w.pendingV, w.done = false, false
	w.active = true
}

// HCWaves reports how many BFS waves HarmonicCentrality runs
// concurrently on g: half the depth of the graph's exchanger (each wave
// keeps one push and one refresh round in flight), at least 1.
//
//repro:deterministic
func HCWaves(g *dgraph.Graph) int {
	return min(max(g.Exchanger().Depth()/2, 1), mpi.MaxTagWave+1)
}

// harmonicWaves runs the batched multi-wave BFS sweeps and accumulates
// 1/d(s,v) onto hc for every source, in source order.
func harmonicWaves(g *dgraph.Graph, e *engine, sources []int64, hc []float64) {
	k := HCWaves(g)
	waves := make([]*bfsWave, k)
	for i := range waves {
		waves[i] = &bfsWave{all: make([]int64, g.NTotal())}
	}
	for lo := 0; lo < len(sources); lo += k {
		batch := sources[lo:min(lo+k, len(sources))]
		for slot, s := range batch {
			waves[slot].reset(g, s)
		}
		runWaves(e, waves[:len(batch)])
		// Accumulate the batch in source order: levels are
		// bit-identical to solo BFS runs, so summing in source order
		// reproduces the sequential loop's float sums exactly.
		for slot := range batch {
			all := waves[slot].all
			// Parallel over vertices, sequential over slots: each hc[v]
			// still accumulates its sources in source order, so the
			// float sums match the sequential loop bit for bit.
			par.For(0, g.NLocal, e.threads, func(v int) {
				if all[v] > 0 {
					hc[v] += 1.0 / float64(all[v])
				}
			})
		}
	}
}

// runWaves runs reset BFS waves to completion on the engine's
// exchanger, in the four-phase cycle above. On a depth-1 exchanger
// (one wave only: its push and refresh cannot both be in flight) each
// refresh settles as soon as it is posted, which is the lock-step BFS
// round — push, refresh, reduce — with no trailing empty round.
func runWaves(e *engine, waves []*bfsWave) {
	ex := e.ex
	pipelined := ex.Depth() > 1
	// settle flushes a wave's pending refresh: owner levels are
	// authoritative, so applying them after this cycle's expansion only
	// corrects stale ghost copies, and the frontier size it carried
	// tells whether the wave's previous frontier was globally empty.
	settle := func(w *bfsWave) {
		outL, outP, tr := ex.FlushValues()
		for i, lid := range outL {
			w.all[lid] = outP[i]
		}
		w.pendingV = false
		w.done = tr.Sum(0) == 0
	}
	active := len(waves)
	for active > 0 {
		// Phase P: post every active wave's discovery push. The wave's
		// own refresh from the previous cycle may still be in flight,
		// so ghost reads here can be one cycle stale; redundant pushes
		// are deduped owner-side.
		for slot, w := range waves {
			if !w.active {
				continue
			}
			w.rd = bfsRound{next: make([]int32, 0, len(w.frontier))}
			ex.SetRoundWave(slot)
			e.expandFrontier(&w.rd, w.all, w.frontier, w.depth, true)
			ex.BeginPush(w.rd.ghostFound, w.rd.ghostLevels, nil)
			e.expandFrontier(&w.rd, w.all, w.frontier, w.depth, false)
		}
		// Phase F: settle the refreshes posted last cycle (the oldest
		// rounds in the pipeline), oldest slot first.
		for _, w := range waves {
			if w.active && w.pendingV {
				settle(w)
			}
		}
		// Phase M: settle the pushes, merge discoveries
		// first-discovery-wins. A wave whose previous frontier was
		// certified globally empty expanded nothing this cycle — its
		// push was empty on every rank — and retires with the pipeline
		// drained of its rounds.
		for _, w := range waves {
			if !w.active {
				continue
			}
			recvL, recvP, _ := ex.FlushPush()
			if w.done {
				w.active = false
				active--
				continue
			}
			for i, lid := range recvL {
				if w.all[lid] < 0 {
					w.all[lid] = recvP[i]
					w.rd.next = append(w.rd.next, lid)
				}
			}
		}
		// Phase V: refresh each surviving wave's new frontier on the
		// ghosting ranks, frontier size riding as the wave's
		// termination counter; it settles mid-next-cycle, or at once on
		// a depth-1 exchanger.
		for slot, w := range waves {
			if !w.active {
				continue
			}
			next := w.rd.next
			ex.SetRoundWave(slot)
			w.tbuf[0] = int64(len(next))
			w.tally = dgraph.Tally{Vals: w.tbuf[:]}
			ex.BeginValues(next, e.values(next, w.all), &w.tally)
			w.pendingV = true
			w.depth++
			w.frontier = next
			if !pipelined {
				if settle(w); w.done {
					w.active = false
					active--
				}
			}
		}
	}
	ex.SetRoundWave(0)
}
