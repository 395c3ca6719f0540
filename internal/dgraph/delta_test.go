package dgraph

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// Both sides of every rank pair must independently derive the same
// gid-sorted shared boundary list — the invariant the packed index
// encoding rests on.
func TestBoundaryPlanSymmetry(t *testing.T) {
	for _, mk := range []func(int) Distribution{blockDist(1 << 10), hashDist()} {
		g := gen.RMAT(10, 8, 3)
		const p = 4
		// sendViews[r][peer] is rank r's send list toward peer;
		// recvViews[r][peer] is rank r's receive list from peer.
		sendViews := make([]map[int][]int64, p)
		recvViews := make([]map[int][]int64, p)
		mpi.Run(p, func(c *mpi.Comm) {
			dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), mk(c.Size()))
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			ex := dg.NewDeltaExchanger()
			defer ex.Close()
			sends, recvs := map[int][]int64{}, map[int][]int64{}
			for peer := 0; peer < p; peer++ {
				if peer == c.Rank() {
					continue
				}
				if gids := ex.SharedSendGIDs(peer); gids != nil {
					sends[peer] = gids
				}
				if gids := ex.SharedRecvGIDs(peer); gids != nil {
					recvs[peer] = gids
				}
			}
			sendViews[c.Rank()] = sends
			recvViews[c.Rank()] = recvs
			c.Barrier() // writes above happen-before reads below
			if c.Rank() != 0 {
				return
			}
			for a := 0; a < p; a++ {
				for b := 0; b < p; b++ {
					if a == b {
						continue
					}
					// a's send list toward b must equal b's receive list from a.
					av, bv := sendViews[a][b], recvViews[b][a]
					if len(av) != len(bv) {
						t.Errorf("pair (%d→%d): list lengths %d vs %d", a, b, len(av), len(bv))
						continue
					}
					if len(av) == 0 {
						t.Errorf("pair (%d→%d): empty shared boundary (graph too sparse for the test)", a, b)
					}
					for i := range av {
						if av[i] != bv[i] {
							t.Errorf("pair (%d→%d): element %d is gid %d vs %d", a, b, i, av[i], bv[i])
							break
						}
					}
				}
			}
		})
	}
}

// The delta exchanger must deliver exactly what the synchronous
// Alltoallv path delivers: after pushing every owned vertex's value,
// all ghosts hold their owner's value.
func TestDeltaExchangerMatchesSyncExchange(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		ex := dg.NewDeltaExchanger()
		defer ex.Close()
		vals := make([]int32, dg.NTotal())
		for i := range vals {
			vals[i] = -1
		}
		q := make([]Update, dg.NLocal)
		for v := 0; v < dg.NLocal; v++ {
			vals[v] = int32(dg.L2G[v] % 1000)
			q[v] = Update{LID: int32(v), Value: vals[v]}
		}
		ex.Begin()
		for _, upd := range ex.Flush(q) {
			if !dg.IsGhost(upd.LID) {
				t.Errorf("rank %d received delta for owned vertex %d", c.Rank(), upd.LID)
				return
			}
			vals[upd.LID] = upd.Value
		}
		for i := 0; i < dg.NGhost; i++ {
			lid := dg.NLocal + i
			if want := int32(dg.L2G[lid] % 1000); vals[lid] != want {
				t.Errorf("rank %d ghost gid %d got %d, want %d", c.Rank(), dg.L2G[lid], vals[lid], want)
				return
			}
		}
	})
}

// A delta round ships one packed element per (update, destination) —
// half the synchronous path's (gid, value) pairs — and empty rounds
// ship nothing.
func TestDeltaExchangerHalvesWireVolume(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		ex := dg.NewDeltaExchanger()
		defer ex.Close()
		q := make([]Update, dg.NLocal)
		for v := 0; v < dg.NLocal; v++ {
			q[v] = Update{LID: int32(v), Value: 1}
		}

		c.ResetStats()
		syncUpdates(dg, q)
		syncSent := c.Stats().ElemsSent

		c.ResetStats()
		ex.Flush(q)
		asyncSent := c.Stats().ElemsSent

		if asyncSent*2 != syncSent {
			t.Errorf("rank %d: async sent %d elements, sync %d (want exactly half)",
				c.Rank(), asyncSent, syncSent)
		}

		c.ResetStats()
		if got := ex.Flush(nil); len(got) != 0 {
			t.Errorf("rank %d: empty round delivered %d updates", c.Rank(), len(got))
		}
		if sent := c.Stats().ElemsSent; sent != 0 {
			t.Errorf("rank %d: empty round shipped %d elements", c.Rank(), sent)
		}
	})
}

// Repeated rounds with sparse deltas must deliver every update and
// nothing else, mirroring the partitioner's iteration pattern.
func TestDeltaExchangerSparseRounds(t *testing.T) {
	g := gen.Grid3D(6, 6, 6)
	mpi.Run(3, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), BlockDist{N: g.N, P: c.Size()})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		ex := dg.NewDeltaExchanger()
		defer ex.Close()
		ghostVals := make(map[int32]int32)
		for round := int32(0); round < 5; round++ {
			// Each round moves a different slice of the boundary.
			var q []Update
			for i, v := range dg.BoundaryVertices() {
				if int32(i)%5 == round {
					q = append(q, Update{LID: v, Value: round*1000 + int32(dg.L2G[v]%997)})
				}
			}
			ex.Begin()
			for _, upd := range ex.Flush(q) {
				ghostVals[upd.LID] = upd.Value
			}
		}
		// Verify against the synchronous path replaying the same rounds.
		want := make(map[int32]int32)
		for round := int32(0); round < 5; round++ {
			var q []Update
			for i, v := range dg.BoundaryVertices() {
				if int32(i)%5 == round {
					q = append(q, Update{LID: v, Value: round*1000 + int32(dg.L2G[v]%997)})
				}
			}
			for _, upd := range syncUpdates(dg, q) {
				want[upd.LID] = upd.Value
			}
		}
		if len(ghostVals) != len(want) {
			t.Errorf("rank %d: delta path touched %d ghosts, sync %d", c.Rank(), len(ghostVals), len(want))
		}
		for lid, v := range want {
			if ghostVals[lid] != v {
				t.Errorf("rank %d: ghost %d delta %d != sync %d", c.Rank(), lid, ghostVals[lid], v)
				return
			}
		}
	})
}

// benchExchangeRound isolates one boundary-exchange round on a built
// distributed graph with every boundary vertex moving: the sync path
// ships its (gid, value) pairs through Alltoallv, the delta path the
// packed half-width stream over point-to-point messages.
func benchExchangeRound(b *testing.B, async bool) {
	b.Helper()
	g := gen.RMAT(12, 16, 1)
	b.ReportAllocs()
	mpi.Run(8, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 1})
		if err != nil {
			b.Error(err)
			return
		}
		ex := dg.NewDeltaExchanger()
		defer ex.Close()
		bv := dg.BoundaryVertices()
		q := make([]Update, len(bv))
		for i, v := range bv {
			q[i] = Update{LID: v, Value: int32(i % 16)}
		}
		for i := 0; i < b.N; i++ {
			if async {
				ex.Flush(q)
			} else {
				syncUpdates(dg, q)
			}
		}
	})
}

func BenchmarkExchangeRoundSync8Ranks(b *testing.B)       { benchExchangeRound(b, false) }
func BenchmarkExchangeRoundAsyncDelta8Ranks(b *testing.B) { benchExchangeRound(b, true) }

// Rounds pipeline to depth DefaultPipeDepth: a second Begin before the
// first Flush is legal, a third must panic.
func TestDeltaExchangerPipelineOverflowPanics(t *testing.T) {
	g := gen.ER(60, 240, 31)
	mpi.Run(1, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), BlockDist{N: g.N, P: 1})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		ex := dg.NewDeltaExchanger()
		defer ex.Close()
		ex.Begin()
		ex.Begin() // depth 2: legal
		if ex.InFlight() != DefaultPipeDepth {
			t.Errorf("InFlight = %d after two Begins, want %d", ex.InFlight(), DefaultPipeDepth)
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for Begin past DefaultPipeDepth")
			}
			// Drain the two legally posted rounds so Close has nothing
			// blocked (Flush pairs them oldest-first).
			ex.Flush(nil)
			ex.Flush(nil)
		}()
		ex.Begin()
	})
}
