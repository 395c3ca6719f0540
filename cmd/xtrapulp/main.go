// Command xtrapulp partitions a graph with the XtraPuLP distributed
// partitioner (simulated MPI ranks) or any baseline method, reports
// the paper's quality metrics, and optionally writes the assignment.
//
// Usage:
//
//	xtrapulp -graph web.txt -parts 16 -ranks 4 [-method xtrapulp] [-out parts.txt]
//	xtrapulp -gen rmat -scale 18 -deg 16 -parts 16 -ranks 8
//	reprorun -n 4 -- xtrapulp -transport env -gen rmat -scale 12 -parts 8
//
// Graph files are edge lists (text "u v" lines, or .bin binary); the
// -gen families mirror the paper's synthetic inputs.
//
// -transport selects the rank substrate: "proc" (default) runs the
// simulated in-process world of -ranks ranks, "env" makes this process
// one rank of an externally launched socket world — it reads the
// REPRO_* rendezvous environment (set by cmd/reprorun or any MPI-style
// launcher), partitions collectively, and only rank 0 prints and
// writes output. Partitions are bit-identical across transports at a
// fixed seed and world size.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/partition"
)

func main() {
	graphPath := flag.String("graph", "", "edge-list file to partition (.txt or .bin)")
	genName := flag.String("gen", "", "synthetic family: rmat|er|hd|mesh|ws|powerlaw")
	scale := flag.Int("scale", 16, "log2 vertex count for -gen")
	deg := flag.Int64("deg", 16, "average degree for -gen")
	parts := flag.Int("parts", 16, "number of parts")
	ranks := flag.Int("ranks", 4, "simulated MPI ranks (-transport proc)")
	threads := flag.Int("threads", 1, "threads per rank (0 = one per core; partitions are reproducible only at a fixed count)")
	method := flag.String("method", repro.MethodXtraPuLP, fmt.Sprintf("partitioner: %v", repro.Methods()))
	seed := flag.Uint64("seed", 1, "random seed")
	single := flag.Bool("single", false, "single-constraint single-objective mode")
	async := flag.Bool("async", false, "asynchronous delta-only boundary exchange")
	blockDist := flag.Bool("blockdist", false, "use block vertex distribution instead of random")
	out := flag.String("out", "", "write per-vertex part ids to this file")
	transport := flag.String("transport", "proc", "rank substrate: proc (in-process) | env (one rank of a socket world, REPRO_* env)")
	flag.Parse()

	gn, err := generatorFor(*graphPath, *genName, *scale, *deg, *seed)
	if err != nil {
		fail(err)
	}
	var w repro.World
	closeWorld := func() error { return nil }
	switch *transport {
	case "proc":
		w = repro.Local(*ranks, *threads)
	case "env":
		if *method != repro.MethodXtraPuLP {
			fail(fmt.Errorf("xtrapulp: -transport env runs only -method %s", repro.MethodXtraPuLP))
		}
		c, closeComm, err := repro.SocketComm(*threads)
		if err != nil {
			fail(fmt.Errorf("xtrapulp: %w", err))
		}
		w, closeWorld = repro.Joined(c), closeComm
	default:
		fmt.Fprintf(os.Stderr, "xtrapulp: unknown transport %q (proc|env)\n", *transport)
		os.Exit(2)
	}

	start := time.Now()
	var assignment []int32
	var q repro.Quality
	if *method == repro.MethodXtraPuLP {
		// Partition from the generator, not a built graph: each rank
		// generates only its edge chunk, and the chunk order — and
		// hence the result — is the same on every transport.
		var rep repro.Report
		assignment, rep, err = repro.XtraPuLP(w, gn, repro.Config{
			Parts: *parts, RandomDist: !*blockDist, SingleConstraint: *single,
			Seed: *seed, AsyncExchange: *async,
		})
		if err != nil {
			fail(err)
		}
		q = rep.Quality
		if w.Rank() == 0 {
			fmt.Printf("graph %s: n=%d ranks=%d threads=%d\n", gn.Name, gn.N, w.Size(), w.Threads())
			fmt.Printf("stages: init=%.3fs (%d rounds) vert=%.3fs edge=%.3fs comm=%d elems (exchange %d, %d allreduces)\n",
				rep.InitTime.Seconds(), rep.InitIters, rep.VertTime.Seconds(),
				rep.EdgeTime.Seconds(), rep.CommVolume, rep.ExchangeVolume, rep.ReductionOps)
		}
	} else {
		g, err := gn.Build()
		if err != nil {
			fail(err)
		}
		fmt.Printf("graph %s: n=%d m=%d davg=%.1f dmax=%d\n",
			gn.Name, g.N, g.NumEdges(), g.AvgDegree(), g.MaxDegree())
		if assignment, err = repro.Partition(*method, g, *parts, *seed); err != nil {
			fail(err)
		}
		q = repro.Evaluate(g, assignment, *parts)
	}
	elapsed := time.Since(start)

	if w.Rank() == 0 {
		fmt.Printf("method=%s parts=%d time=%.3fs\n", *method, *parts, elapsed.Seconds())
		fmt.Printf("edge cut ratio      %.4f  (%d edges cut)\n", q.EdgeCutRatio, q.CutEdges)
		fmt.Printf("scaled max cut      %.4f\n", q.ScaledMaxCutRatio)
		fmt.Printf("vertex imbalance    %.4f\n", q.VertexImbalance)
		fmt.Printf("edge imbalance      %.4f\n", q.EdgeImbalance)
		if *out != "" {
			if err := partition.SaveParts(*out, assignment); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *out)
		}
	}
	//lint:ignore errcheck the run is complete; a teardown error cannot change the result
	closeWorld()
}

// fail reports err and exits with status 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// generatorFor builds the distributed run's edge-chunk generator: a
// synthetic family, or a loaded edge-list file wrapped as a static
// generator.
func generatorFor(path, genName string, scale int, deg int64, seed uint64) (*repro.Generator, error) {
	if path != "" {
		g, err := repro.LoadGraph(path)
		if err != nil {
			return nil, err
		}
		return gen.FromEdgeList(path, g.N, g.Edges()), nil
	}
	return syntheticGenerator(genName, scale, deg, seed)
}

// syntheticGenerator maps a -gen family name to its generator.
func syntheticGenerator(genName string, scale int, deg int64, seed uint64) (*repro.Generator, error) {
	n := int64(1) << uint(scale)
	switch genName {
	case "rmat":
		return repro.RMAT(scale, deg, seed), nil
	case "er":
		return repro.RandER(n, n*deg/2, seed), nil
	case "hd":
		return repro.RandHD(n, deg, seed), nil
	case "mesh":
		side := int64(1)
		for side*side*side < n {
			side++
		}
		return repro.Mesh3D(side, side, side), nil
	case "ws":
		return repro.SmallWorld(n, deg, 0.1, seed), nil
	case "powerlaw":
		return repro.PowerLaw(n, n*deg/2, 2.2, seed), nil
	case "":
		return nil, fmt.Errorf("xtrapulp: pass -graph FILE or -gen FAMILY")
	default:
		return nil, fmt.Errorf("xtrapulp: unknown generator %q", genName)
	}
}
