package repro_test

import (
	"fmt"

	"repro"
)

// ExampleConfig_asyncExchange runs the same partitioning job on both
// exchange engines: the async-delta engine produces the identical
// partition while sending fewer elements and entering far fewer
// Allreduce barriers.
func ExampleConfig_asyncExchange() {
	gen := repro.RMAT(10, 8, 1)

	// One thread per rank: cross-mode bit-equality of the PARTITIONER
	// is only promised at one thread (the analytics and SpMV are
	// bit-identical at every thread count, the partitioner's balance
	// stage is not).
	world := repro.Local(4, 1)
	sync := repro.Config{Parts: 8, RandomDist: true, Seed: 7}
	async := sync
	async.AsyncExchange = true // packed P2P deltas + piggybacked tallies

	sparts, srep, err := repro.XtraPuLP(world, gen, sync)
	if err != nil {
		panic(err)
	}
	aparts, arep, err := repro.XtraPuLP(world, gen, async)
	if err != nil {
		panic(err)
	}

	identical := true
	for v := range sparts {
		if sparts[v] != aparts[v] {
			identical = false
			break
		}
	}
	fmt.Println("partitions identical:", identical)
	fmt.Println("async sends fewer elements:", arep.ExchangeVolume < srep.ExchangeVolume)
	fmt.Println("async enters fewer allreduces:", arep.ReductionOps < srep.ReductionOps)
	// Output:
	// partitions identical: true
	// async sends fewer elements: true
	// async enters fewer allreduces: true
}

// ExampleAnalyticsConfig routes the distributed analytics over the
// async delta engine; results are transport-independent.
func ExampleAnalyticsConfig() {
	gen := repro.RandER(512, 2048, 3)
	parts, err := repro.Partition(repro.MethodVertexBlock, gen.MustBuild(), 4, 1)
	if err != nil {
		panic(err)
	}
	rep, err := repro.RunAnalytics(repro.Local(4, 0), gen, parts, repro.AnalyticsConfig{
		HCSources: 2, AsyncExchange: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("analytics run:", len(rep.Results))
	// Output:
	// analytics run: 6
}
