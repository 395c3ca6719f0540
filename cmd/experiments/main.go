// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale small|full] [-seed N] <experiment>...
//	experiments -list
//	experiments all
//
// Each experiment prints the rows or series of the corresponding table
// or figure in the paper's evaluation (§V); see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results.
//
// -transport selects the rank substrate. The default "proc" runs each
// experiment's simulated in-process worlds. "env" makes this process
// one rank of an externally launched socket world (it reads the
// REPRO_* rendezvous environment; launch with cmd/reprorun) and runs
// the exchange experiment's partitioning path collectively over it,
// writing a partition-only BENCH_exchange_socket.json from rank 0 with
// -json — the socket-substrate benchmark datapoint:
//
//	reprorun -n 4 -- experiments -transport env -json exchange
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/harness"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment sizing: small or full")
	seedFlag := flag.Uint64("seed", 1, "random seed for all generators and partitioners")
	listFlag := flag.Bool("list", false, "list experiment names and exit")
	jsonFlag := flag.Bool("json", false, "also write machine-readable results to BENCH_<experiment>.json (experiments that support it)")
	pipeDepthFlag := flag.Int("pipe-depth", 0, "async exchange pipeline depth: rounds in flight per exchanger (0 = default 2; depth/2 concurrent HC waves)")
	transportFlag := flag.String("transport", "proc", "rank substrate: proc (in-process) | env (one rank of a socket world, REPRO_* env; exchange only)")
	threadsFlag := flag.Int("threads", 1, "intra-rank threads for analytics/SpMV sweeps (0 = one per core); with -transport env, the world's thread budget")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [-scale small|full] [-seed N] [-json] [-pipe-depth D] [-threads T] <experiment>...|all\n")
		fmt.Fprintf(os.Stderr, "experiments: %v\n", harness.Names)
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, n := range harness.Names {
			fmt.Println(n)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	scale, err := harness.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	names := args
	if len(args) == 1 && args[0] == "all" {
		names = harness.Names
	}
	switch *transportFlag {
	case "proc":
	case "env":
		runEnvWorld(names, scale, *seedFlag, *jsonFlag, *pipeDepthFlag, *threadsFlag)
		return
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown transport %q (proc|env)\n", *transportFlag)
		os.Exit(2)
	}
	for _, name := range names {
		fmt.Printf("=== %s (scale=%s seed=%d) ===\n", name, *scaleFlag, *seedFlag)
		start := time.Now()
		cfg := harness.Config{W: os.Stdout, Scale: scale, Seed: *seedFlag, PipeDepth: *pipeDepthFlag, Threads: *threadsFlag}
		if *jsonFlag {
			cfg.JSONPath = fmt.Sprintf("BENCH_%s.json", name)
		}
		if err := harness.Run(name, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %.1fs)\n\n", name, time.Since(start).Seconds())
	}
}

// runEnvWorld runs this process as one rank of an externally launched
// socket world (cmd/reprorun sets the rendezvous environment). Only
// the exchange experiment has a socket form — its partitioning path
// is collective over a joined world (harness.ExchangePartition) — so
// any other name is rejected before the rendezvous, while every
// rank can still agree on the verdict. Rank 0 prints the table and,
// with -json, writes the partition-only socket artifact.
func runEnvWorld(names []string, scale harness.Scale, seed uint64, jsonOut bool, pipeDepth, threads int) {
	for _, name := range names {
		if name != "exchange" {
			fmt.Fprintf(os.Stderr, "experiments: -transport env supports only the exchange experiment (got %q)\n", name)
			os.Exit(2)
		}
	}
	// threads <= 0 lets SocketComm consult REPRO_THREADS, so a launcher
	// can set one budget for every worker it spawns.
	c, closeComm, err := repro.SocketComm(threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// ExchangePartition prints and writes from rank 0 only.
	cfg := harness.Config{W: os.Stdout, Scale: scale, Seed: seed, PipeDepth: pipeDepth, Threads: threads}
	if jsonOut {
		cfg.JSONPath = "BENCH_exchange_socket.json"
	}
	if c.Rank() == 0 {
		fmt.Printf("=== exchange (scale=%s seed=%d transport=socket ranks=%d) ===\n", scale, seed, c.Size())
	}
	start := time.Now()
	if err := harness.ExchangePartition(repro.Joined(c), cfg); err != nil {
		fmt.Fprintf(os.Stderr, "exchange: %v\n", err)
		os.Exit(1)
	}
	if c.Rank() == 0 {
		fmt.Printf("(exchange took %.1fs)\n\n", time.Since(start).Seconds())
	}
	//lint:ignore errcheck the run is complete; a teardown error cannot change the result
	closeComm()
}
