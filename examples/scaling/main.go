// Scaling: a strong-scaling sweep in the spirit of the paper's Fig. 1.
// The same R-MAT graph is partitioned into 16 parts on 1, 2, 4, and 8
// simulated MPI ranks; each rank generates only its own chunk of the
// edge list, so no process ever holds the whole graph — the property
// that lets XtraPuLP process trillion-edge inputs.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	gen := repro.RMAT(15, 16, 1) // 32,768 vertices, ~262k edges
	fmt.Printf("graph %s: n=%d m=%d\n\n", gen.Name, gen.N, gen.M)
	fmt.Printf("%6s %10s %10s %10s %9s %9s\n",
		"ranks", "total", "init", "balance", "cut", "speedup")

	var base float64
	for _, ranks := range []int{1, 2, 4, 8} {
		parts, rep, err := repro.XtraPuLP(repro.Local(ranks, 0), gen, repro.Config{
			Parts:      16,
			RandomDist: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		_ = parts
		t := rep.TotalTime.Seconds()
		if ranks == 1 {
			base = t
		}
		fmt.Printf("%6d %9.3fs %9.3fs %9.3fs %9.3f %8.2fx\n",
			ranks, t, rep.InitTime.Seconds(),
			(rep.VertTime + rep.EdgeTime).Seconds(),
			rep.Quality.EdgeCutRatio, base/t)
	}
	fmt.Println("\nSpeedups are wall-clock on goroutine ranks sharing one machine;")
	fmt.Println("the shape (scaling without bottlenecks) is the reproduced claim.")
}
