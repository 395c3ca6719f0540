// Command benchcheck validates a BENCH_exchange.json benchmark
// artifact: it must parse and carry every measurement the trajectory
// tracking depends on (the rank substrate the run was measured over —
// proc or socket — so points from different transports are never
// mixed, Allreduce counts on all paths, steady-state
// allocations and the observed pipeline depth on the analytics path,
// the configured pipe depth with the HC-wave measurements — wave
// count, HC Allreduces strictly below the sequential loop's, wall time
// per source — and the SpMV norm-piggyback flag). CI runs it between
// generating and uploading the artifact, so a truncated or
// schema-drifted file fails the build instead of silently poisoning
// the recorded trajectory.
//
// With -against, it also compares the artifact with a committed one:
// every row must match by (path, graph, ranks, mode, threads, layout)
// and carry the same element volumes, reduction counts, edge cuts,
// HC-wave counts, norm-piggyback flags and pipeline depths. Wall,
// sweep and allocation columns are never compared.
//
// Usage:
//
//	benchcheck [-against committed.json] BENCH_exchange.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
)

func main() {
	against := flag.String("against", "", "committed artifact whose deterministic columns the generated one must match")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-against committed.json] BENCH_exchange.json")
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	if err := harness.ValidateExchangeJSON(path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: schema OK\n", path)
	if *against == "" {
		return
	}
	if err := harness.CompareExchangeJSON(*against, path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: deterministic columns match %s\n", path, *against)
}
