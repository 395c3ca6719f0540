package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// ExampleOptions configures the partitioner's asynchronous exchange
// end to end: DefaultOptions and the async-delta engine, run
// collectively on four simulated ranks.
func ExampleOptions() {
	g := gen.RMAT(9, 8, 1)

	opt := core.DefaultOptions(4)
	opt.Seed = 7
	opt.Exchange = core.ExchangeAsyncDelta // P2P deltas, no per-iteration barrier

	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 7})
		if err != nil {
			panic(err)
		}
		parts, rep, err := core.Partition(dg, opt)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			fmt.Println("labels cover owned and ghost vertices:", len(parts) == dg.NTotal())
			fmt.Println("vertex imbalance within constraint:", rep.Quality.VertexImbalance < 1.2)
		}
	})
	// Output:
	// labels cover owned and ghost vertices: true
	// vertex imbalance within constraint: true
}
