package dgraph

import (
	"fmt"

	"repro/internal/mpi"
)

// BulkExchanger is the bulk-synchronous engine of the Exchanger
// interface — the paper's Algorithm 3 baseline. A round's Begin only
// buffers: value and push rounds encode their (gid, payload) pairs per
// destination rank, with destinations re-derived from the adjacency.
// Its Flush then performs exactly one world-wide Alltoallv of those
// pairs and, when the round carries a tally or counter, exactly one
// Allreduce of it; nothing else. Rounds do not pipeline (Depth 1), and
// construction performs no collective.
type BulkExchanger struct {
	g *Graph

	// pend is the posted-but-unflushed round (roundNone when idle);
	// tallyLen is an update round's declared tally length and tally a
	// value or push round's declared tally.
	pend     roundKind
	tallyLen int
	tally    Tally

	// The round's (gid, payload) pairs per destination rank, packed at
	// Flush into one destination-major send buffer; all reused across
	// rounds. seen and dsts are the forward encoder's scratch.
	bufs   [][]int64
	send   []int64
	counts []int
	seen   []bool
	dsts   []int32
	// fscratch holds a float tally's values for its Allreduce.
	fscratch []float64

	// Decode arenas, valid until the next round is flushed, and an
	// update round's queue split into lids and payloads.
	updates []Update
	outL    []int32
	outP    []int64
	lids    []int32
	vals    []int64
}

// newBulkExchanger builds the bulk engine for g: purely local.
func newBulkExchanger(g *Graph) *BulkExchanger {
	n := g.Comm.Size()
	return &BulkExchanger{g: g, bufs: make([][]int64, n), counts: make([]int, n), seen: make([]bool, n)}
}

// Depth is 1: a bulk round is settled before the next one is posted.
func (b *BulkExchanger) Depth() int { return 1 }

// InFlight reports whether a round is posted but not yet flushed.
func (b *BulkExchanger) InFlight() int {
	if b.pend == roundNone {
		return 0
	}
	return 1
}

// SetRoundWave checks the wave id; bulk rounds carry no tags.
func (b *BulkExchanger) SetRoundWave(w int) { checkWave(w) }

// post records the round about to be buffered.
func (b *BulkExchanger) post(kind roundKind) {
	if b.pend != roundNone {
		panic("dgraph: BulkExchanger round posted while another is in flight (depth 1)")
	}
	b.pend = kind
}

// BeginTally posts an update round with a tally of tallyLen elements.
func (b *BulkExchanger) BeginTally(tallyLen int) {
	b.post(roundUpdates)
	b.tallyLen = tallyLen
}

// FlushTally ships the round's updates through one Alltoallv, reduces
// the tally (when non-empty) with one Allreduce, and returns the
// updates received for this rank's ghosts with the global tally sums.
func (b *BulkExchanger) FlushTally(q []Update, tally []int64) ([]Update, TallyRound) {
	if b.pend == roundNone {
		b.BeginTally(len(tally))
	}
	if len(tally) != b.tallyLen {
		panic(fmt.Sprintf("dgraph: FlushTally with tally length %d, Begin posted %d", len(tally), b.tallyLen))
	}
	b.lids, b.vals = b.lids[:0], b.vals[:0]
	for _, u := range q {
		b.lids = append(b.lids, u.LID)
		b.vals = append(b.vals, int64(u.Value))
	}
	b.encodeForward(b.lids, b.vals)
	b.tally = Tally{Vals: tally}
	outL, outP, tr := b.settle(roundUpdates, false, 0)
	b.updates = b.updates[:0]
	for i, lid := range outL {
		b.updates = append(b.updates, Update{LID: lid, Value: int32(outP[i])})
	}
	return b.updates, tr
}

// BeginValues buffers an owner → ghost value round: one (gid, payload)
// pair per owned vertex and per rank ghosting it.
func (b *BulkExchanger) BeginValues(lids []int32, payloads []int64, tally *Tally) {
	b.post(roundValuesFwd)
	b.tally = tallyOf(tally)
	b.encodeForward(lids, payloads)
}

// FlushValues ships the buffered value round and reduces its tally.
func (b *BulkExchanger) FlushValues() ([]int32, []int64, TallyRound) {
	return b.settle(roundValuesFwd, false, 0)
}

// FlushCount ships the buffered counted round and reduces the counter
// in the same round (Lag 0).
func (b *BulkExchanger) FlushCount(count int64) ([]int32, []int64, TallyRound) {
	return b.settle(roundValuesFwd, true, count)
}

// BeginPush buffers a ghost → owner round: one (gid, payload) pair per
// ghost, addressed to its owner.
func (b *BulkExchanger) BeginPush(lids []int32, payloads []int64, tally *Tally) {
	b.post(roundValuesRev)
	b.tally = tallyOf(tally)
	g := b.g
	b.reset()
	for i, lid := range lids {
		if !g.IsGhost(lid) {
			panic(fmt.Sprintf("dgraph: BeginPush with owned lid %d", lid))
		}
		dst := g.GhostOwner[int(lid)-g.NLocal]
		b.bufs[dst] = append(b.bufs[dst], g.L2G[lid], payloads[i])
	}
}

// FlushPush ships the buffered push round and reduces its tally.
func (b *BulkExchanger) FlushPush() ([]int32, []int64, TallyRound) {
	return b.settle(roundValuesRev, false, 0)
}

// settle performs the pending round's Alltoallv and, when it carries a
// tally or counter, its Allreduce.
func (b *BulkExchanger) settle(kind roundKind, counted bool, count int64) ([]int32, []int64, TallyRound) {
	if b.pend != kind {
		panic("dgraph: Flush of a round kind other than the one in flight")
	}
	checkTally(b.tally, counted)
	b.pend = roundNone
	b.ship(kind == roundValuesRev)
	switch {
	case counted:
		return b.outL, b.outP, reduceCount(b.g.Comm, count)
	case len(b.tally.Vals) > 0:
		return b.outL, b.outP, reduceTally(b.g.Comm, b.tally.Vals, b.tally.Float, &b.fscratch)
	}
	return b.outL, b.outP, TallyRound{}
}

// reset empties the per-destination buffers for a new round.
func (b *BulkExchanger) reset() {
	for r := range b.bufs {
		b.bufs[r] = b.bufs[r][:0]
	}
}

// encodeForward buffers an owner → ghost round: for each queued owned
// vertex, (gid, payload) to every other rank ghosting it, with the
// destinations re-derived from the adjacency.
func (b *BulkExchanger) encodeForward(lids []int32, payloads []int64) {
	g, me := b.g, int32(b.g.Comm.Rank())
	b.reset()
	for qi, lid := range lids {
		b.dsts = b.dsts[:0]
		for _, u := range g.Neighbors(lid) {
			if !g.IsGhost(u) {
				continue
			}
			if r := g.GhostOwner[int(u)-g.NLocal]; r != me && !b.seen[r] {
				b.seen[r] = true
				b.dsts = append(b.dsts, r)
			}
		}
		for _, r := range b.dsts {
			b.seen[r] = false
			b.bufs[r] = append(b.bufs[r], g.L2G[lid], payloads[qi])
		}
	}
}

// ship packs the per-destination buffers into one destination-major
// send buffer, runs the round's Alltoallv, and decodes every received
// (gid, payload) pair into outL/outP with the gid translated to a
// local id: a ghost for forward rounds, an owned vertex for push
// rounds.
func (b *BulkExchanger) ship(push bool) {
	g := b.g
	b.send = b.send[:0]
	for r, buf := range b.bufs {
		b.send = append(b.send, buf...)
		b.counts[r] = len(buf)
	}
	recv, _ := mpi.Alltoallv(g.Comm, b.send, b.counts)
	b.outL, b.outP = b.outL[:0], b.outP[:0]
	for i := 0; i < len(recv); i += 2 {
		lid, ok := g.G2L[recv[i]]
		if !ok || (push && g.IsGhost(lid)) {
			// With a correct boundary map this cannot happen.
			panic(fmt.Sprintf("dgraph: rank %d received a pair for gid %d it does not hold", g.Comm.Rank(), recv[i]))
		}
		b.outL = append(b.outL, lid)
		b.outP = append(b.outP, recv[i+1])
	}
}
