package analytics

import (
	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// Multi-wave Harmonic Centrality. HC runs one full distributed BFS per
// source, and the waves are completely independent — yet the
// sequential loop pays every source the full round-trip latency of
// every BFS level, one after another. This engine batches sources into
// concurrent waves that share one deep exchange pipeline: with the
// exchanger built at depth d (Graph.SetPipeDepth), d/2 waves advance
// together, each keeping its discovery-push round and its ghost-refresh
// round in flight — so the pipeline always holds d rounds while each
// rank sweeps the waves' frontiers back to back.
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
//	         PREVIOUS cycle: correct stale ghost copies, fold the
//	         wave's termination counter
//	phase M: per wave — FlushPush: merge remote discoveries
//	         first-discovery-wins into the next frontier
//	phase V: per wave — BeginValues the new frontier's levels, with
//	         the frontier size riding as the wave's termination counter
//
// Every wave's rounds are stamped with its slot as the round tag's
// wave id (DeltaExchanger.SetRoundWave), so a skewed schedule panics
// naming the wave and the round. Each wave individually runs exactly
// the single-BFS pipelined schedule (bfsPipelined): same expansion
// order, same one-cycle ghost staleness, same first-discovery-wins
// merge — so its levels are bit-identical to a solo BFS, and because
// the per-source contributions are accumulated in source order after
// the batch completes, the centralities are bit-identical to the
// sequential loop's float sums at every depth and in both modes.
//
// Termination is per wave and piggybacked: the counter a wave's
// refresh carries is folded one cycle late (one trailing empty cycle
// per wave, which expands nothing), and on incomplete rank
// neighborhoods each wave falls back to its own exact Allreduce every
// round — wave round counts are identical on every rank, so the
// collective schedule stays agreed. A finished wave goes
// quiet (posts nothing, flushes nothing) while its batch mates drain;
// slots refill only at batch boundaries, which is what keeps
// accumulation order — and therefore the float sums — deterministic.
//
// On complete neighborhoods a wave costs ZERO reductions: unlike the
// sequential loop, which pays one eccentricity Allreduce per source
// inside BFS, the wave engine never needs eccentricities at all.

// hcWave is one BFS wave's private state: its level array, frontier,
// and termination bookkeeping. Waves share the exchanger pipeline but
// nothing else.
type hcWave struct {
	all      []int64
	frontier []int32
	rd       bfsRound
	payload  []int64
	tally    [1]int64 // per-wave: BeginValues aliases it until the flush
	prevLen  int64
	depth    int64
	pendingV bool
	active   bool
	done     bool
}

// reset re-arms the wave for a new source.
func (w *hcWave) reset(g *dgraph.Graph, src int64) {
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
	w.prevLen, w.depth = 0, 0
	w.pendingV, w.done = false, false
	w.active = true
}

// HCWaves reports how many BFS waves HarmonicCentrality runs
// concurrently on g: half the exchange pipeline depth on the async
// engine (each wave keeps one push and one refresh round in flight),
// 1 on the synchronous engine.
//
//repro:deterministic
func HCWaves(g *dgraph.Graph) int {
	if !g.AsyncExchange() {
		return 1
	}
	k := g.PipeDepth() / 2
	if k < 1 {
		k = 1
	}
	if k > mpi.MaxTagWave+1 {
		k = mpi.MaxTagWave + 1
	}
	return k
}

// harmonicWaves runs the batched multi-wave BFS sweeps and accumulates
// 1/d(s,v) onto hc for every source, in source order.
func harmonicWaves(g *dgraph.Graph, e *engine, sources []int64, hc []float64) {
	ex := e.ex
	k := HCWaves(g)
	waves := make([]*hcWave, k)
	for i := range waves {
		waves[i] = &hcWave{all: make([]int64, g.NTotal())}
	}
	for lo := 0; lo < len(sources); lo += k {
		batch := sources[lo:min(lo+k, len(sources))]
		active := len(batch)
		for slot, s := range batch {
			waves[slot].reset(g, s)
		}
		for active > 0 {
			// Phase P: post every active wave's discovery push. The
			// wave's own refresh from the previous cycle may still be
			// in flight, so ghost reads here carry the same one-cycle
			// staleness as the solo pipelined BFS — redundant pushes
			// are deduped owner-side.
			for slot, w := range waves[:len(batch)] {
				if !w.active {
					continue
				}
				w.rd = bfsRound{next: make([]int32, 0, len(w.frontier))}
				ex.SetRoundWave(slot)
				e.expandFrontier(&w.rd, w.all, w.frontier, w.depth, bfsBoundaryOnly)
				ex.BeginPush(w.rd.ghostFound, w.rd.ghostLevels, nil)
				e.expandFrontier(&w.rd, w.all, w.frontier, w.depth, bfsInteriorOnly)
			}
			// Phase F: settle the refreshes posted last cycle (the
			// oldest rounds in the pipeline), oldest slot first. Owner
			// levels are authoritative, so applying them after this
			// cycle's expansion only corrects stale ghost copies.
			for _, w := range waves[:len(batch)] {
				if !w.active || !w.pendingV {
					continue
				}
				outL, outP, tr := ex.FlushValues()
				for i, lid := range outL {
					w.all[lid] = outP[i]
				}
				w.pendingV = false
				if e.complete {
					w.done = tr.Sum(0) == 0
				} else {
					w.done = mpi.AllreduceScalar(g.Comm, w.prevLen, mpi.Sum) == 0
				}
			}
			// Phase M: settle the pushes, merge discoveries
			// first-discovery-wins. A wave whose previous frontier was
			// certified globally empty expanded nothing this cycle —
			// its push was empty on every rank — and retires with the
			// pipeline drained of its rounds.
			for _, w := range waves[:len(batch)] {
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
			// Phase V: refresh each surviving wave's new frontier on
			// the ghosting ranks, frontier size riding as the wave's
			// termination counter; it settles mid-next-cycle.
			for slot, w := range waves[:len(batch)] {
				if !w.active {
					continue
				}
				next := w.rd.next
				ex.SetRoundWave(slot)
				w.payload = w.payload[:0]
				for _, v := range next {
					w.payload = append(w.payload, w.all[v])
				}
				var tally []int64
				if e.complete {
					w.tally[0] = int64(len(next))
					tally = w.tally[:1]
				}
				ex.BeginValues(next, w.payload, tally)
				w.pendingV = true
				w.prevLen = int64(len(next))
				w.depth++
				w.frontier = next
			}
		}
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
	ex.SetRoundWave(0)
}
