// Quickstart: generate a small-world R-MAT graph, partition it into 8
// parts with XtraPuLP on 4 simulated MPI ranks, and print the paper's
// quality metrics next to the random-partitioning baseline.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A scale-14 R-MAT graph: 16,384 vertices, ~131k edges, heavily
	// skewed degrees — the paper's archetypal small-world input.
	g := repro.RMAT(14, 16, 1).MustBuild()
	fmt.Printf("graph: n=%d m=%d davg=%.1f dmax=%d\n",
		g.N, g.NumEdges(), g.AvgDegree(), g.MaxDegree())

	const parts = 8
	world := repro.Local(4, 0) // simulated MPI ranks, one worker per core
	assignment, rep, err := repro.XtraPuLP(world, repro.FromGraph(g), repro.Config{
		Parts:      parts,
		RandomDist: true, // the paper's random vertex distribution
	})
	if err != nil {
		log.Fatal(err)
	}

	q := repro.Evaluate(g, assignment, parts)
	fmt.Printf("\nXtraPuLP (%d parts, %.3fs: init %.3fs + vert %.3fs + edge %.3fs)\n",
		parts, rep.TotalTime.Seconds(), rep.InitTime.Seconds(),
		rep.VertTime.Seconds(), rep.EdgeTime.Seconds())
	fmt.Printf("  edge cut ratio   %.3f\n", q.EdgeCutRatio)
	fmt.Printf("  scaled max cut   %.3f\n", q.ScaledMaxCutRatio)
	fmt.Printf("  vertex imbalance %.3f (constraint 1.10)\n", q.VertexImbalance)
	fmt.Printf("  edge imbalance   %.3f (constraint 1.10)\n", q.EdgeImbalance)

	random, err := repro.Partition(repro.MethodRandom, g, parts, 1)
	if err != nil {
		log.Fatal(err)
	}
	qr := repro.Evaluate(g, random, parts)
	fmt.Printf("\nrandom baseline: edge cut ratio %.3f (theory: (p-1)/p = %.3f)\n",
		qr.EdgeCutRatio, float64(parts-1)/float64(parts))
}
