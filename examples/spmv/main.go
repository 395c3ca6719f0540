// SpMV: the paper's Table III scenario in miniature. One hundred
// chained sparse matrix-vector products run over a skewed social-graph
// proxy on 16 simulated MPI ranks, comparing 1D row layouts against 2D
// processor-grid layouts, each derived from block, random, and
// XtraPuLP vertex partitions. On skewed graphs the 2D layout bounds
// per-rank communication and the XtraPuLP partition reduces it
// further — the paper's reported 2.77x geometric-mean speedup of
// 2D-XtraPuLP over 1D-random.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const ranks = 16
	const iters = 100
	g := repro.PowerLaw(1<<13, 1<<16, 2.0, 1).MustBuild()
	fmt.Printf("social proxy: n=%d m=%d dmax=%d; %d SpMVs on %d ranks\n\n",
		g.N, g.NumEdges(), g.MaxDegree(), iters, ranks)

	partitions := []struct {
		name  string
		parts []int32
	}{}
	for _, m := range []string{repro.MethodVertexBlock, repro.MethodRandom} {
		parts, err := repro.Partition(m, g, ranks, 1)
		if err != nil {
			log.Fatal(err)
		}
		partitions = append(partitions, struct {
			name  string
			parts []int32
		}{m, parts})
	}
	world := repro.Local(ranks, 0)
	xparts, _, err := repro.XtraPuLP(world, repro.FromGraph(g), repro.Config{Parts: ranks, RandomDist: true})
	if err != nil {
		log.Fatal(err)
	}
	partitions = append(partitions, struct {
		name  string
		parts []int32
	}{"xtrapulp", xparts})

	fmt.Printf("%-12s %-6s %10s %12s\n", "partition", "layout", "time", "sent values")
	var rand1D, x2D float64
	for _, layout := range []string{repro.Layout1D, repro.Layout2D} {
		for _, pt := range partitions {
			res, err := repro.RunSpMV(world, g, pt.parts, repro.SpMVConfig{Layout: layout, Iterations: iters})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s %-6s %9.3fs %12d\n", pt.name, layout, res.Time.Seconds(), res.CommVolume)
			if layout == repro.Layout1D && pt.name == repro.MethodRandom {
				rand1D = res.Time.Seconds()
			}
			if layout == repro.Layout2D && pt.name == "xtrapulp" {
				x2D = res.Time.Seconds()
			}
		}
	}
	fmt.Printf("\n2D-XtraPuLP vs 1D-random: %.2fx faster\n", rand1D/x2D)
}
