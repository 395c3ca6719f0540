package core

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// On an incomplete topology the piggybacked tallies would miss
// non-neighbor ranks, so the partitioner must fall back to exact
// per-iteration settles, keeping async partitions bit-identical to
// sync — the safety half of the neighborhood detection whose fast half
// the repository-level determinism test covers on complete topologies.
func TestPiggybackAutoFallbackIncompleteTopology(t *testing.T) {
	gn := gen.Grid3D(3, 3, 9)
	const ranks = 3
	var parts [2][]int32
	for _, exchange := range []ExchangeMode{ExchangeSync, ExchangeAsyncDelta} {
		exchange := exchange
		mpi.Run(ranks, func(c *mpi.Comm) {
			dg, err := dgraph.FromEdgeChunks(c, gn.N, gn.EdgesChunk(c.Rank(), c.Size()),
				dgraph.BlockDist{N: gn.N, P: ranks})
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			opt := DefaultOptions(4)
			opt.Seed = 11
			opt.Exchange = exchange
			local, _, err := Partition(dg, opt)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			full := dg.GatherGlobal(local[:dg.NLocal])
			if c.Rank() == 0 {
				if exchange == ExchangeSync {
					parts[0] = full
				} else {
					parts[1] = full
				}
			}
		})
		if exchange == ExchangeAsyncDelta {
			for v := range parts[0] {
				if parts[0][v] != parts[1][v] {
					t.Fatalf("partitions diverge at vertex %d: sync %d async %d", v, parts[0][v], parts[1][v])
				}
			}
		}
	}
}
