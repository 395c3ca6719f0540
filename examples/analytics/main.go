// Analytics: the paper's Fig. 8 scenario in miniature. A web-crawl
// proxy graph is distributed across 8 simulated compute nodes four
// ways — edge-block, random, vertex-block, and XtraPuLP partitions —
// and the six distributed analytics (harmonic centrality, k-core,
// label propagation, PageRank, SCC, WCC) run under each placement.
// Partition quality translates directly into analytic runtime because
// every iteration exchanges values across cut edges.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	const nodes = 8
	gen := repro.PowerLaw(1<<13, 1<<16, 2.1, 1) // crawl-like: hubby power law
	g := gen.MustBuild()
	fmt.Printf("web-crawl proxy: n=%d m=%d dmax=%d\n\n", g.N, g.NumEdges(), g.MaxDegree())

	// Three trivial placements plus XtraPuLP.
	strategies := []struct {
		name  string
		parts []int32
	}{}
	for _, m := range []string{repro.MethodEdgeBlock, repro.MethodRandom, repro.MethodVertexBlock} {
		parts, err := repro.Partition(m, g, nodes, 1)
		if err != nil {
			log.Fatal(err)
		}
		strategies = append(strategies, struct {
			name  string
			parts []int32
		}{m, parts})
	}
	xstart := time.Now()
	world := repro.Local(nodes, 0)
	xparts, _, err := repro.XtraPuLP(world, repro.FromGraph(g), repro.Config{Parts: nodes, RandomDist: true})
	if err != nil {
		log.Fatal(err)
	}
	xtime := time.Since(xstart)
	strategies = append(strategies, struct {
		name  string
		parts []int32
	}{"xtrapulp", xparts})

	fmt.Printf("%-12s %8s %8s %8s %8s %8s %8s %10s\n",
		"placement", "HC", "KC", "LP", "PR", "SCC", "WCC", "total")
	for _, st := range strategies {
		rep, err := repro.RunAnalytics(world, gen, st.parts, repro.AnalyticsConfig{HCSources: 4})
		if err != nil {
			log.Fatal(err)
		}
		var total time.Duration
		fmt.Printf("%-12s", st.name)
		for _, r := range rep.Results {
			fmt.Printf(" %7.3fs", r.Time.Seconds())
			total += r.Time
		}
		if st.name == "xtrapulp" {
			total += xtime
			fmt.Printf(" %8.3fs (incl. %.3fs partitioning)\n", total.Seconds(), xtime.Seconds())
		} else {
			fmt.Printf(" %8.3fs\n", total.Seconds())
		}
	}

	q := repro.Evaluate(g, xparts, nodes)
	fmt.Printf("\nXtraPuLP placement cut ratio: %.3f — lower cut, less boundary exchange, faster analytics.\n",
		q.EdgeCutRatio)
}
