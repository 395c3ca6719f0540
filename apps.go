package repro

import (
	"fmt"

	"repro/internal/analytics"
	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/spmv"
)

// AnalyticResult reports one distributed analytic's execution.
type AnalyticResult = analytics.Result

// AnalyticsConfig drives a distributed analytics run.
type AnalyticsConfig struct {
	// Ranks is the number of simulated compute nodes (default 1);
	// parts must map every vertex into [0, Ranks).
	Ranks int
	// HCSources bounds the harmonic centrality BFS count (the paper
	// uses 100).
	HCSources int
	// AsyncExchange routes the analytics' boundary exchanges
	// (ExchangeInt64/ExchangeFloat64/PushToOwners) through the async
	// delta engine instead of the bulk-synchronous Alltoallv. Results
	// are identical; exchanged-element volume is lower.
	AsyncExchange bool
	// TermEpoch bounds termination-test staleness in async mode on
	// INCOMPLETE rank neighborhoods, mirroring Config.SizeEpoch for the
	// partitioner: every TermEpoch-th round performs the exact
	// termination Allreduce, the rounds between run unchecked, and a
	// fixed point reached mid-epoch costs at most TermEpoch-1 extra
	// no-op rounds — which cannot change any value, so results stay
	// identical. 0 or 1 (default) keeps the exact per-round fallback;
	// on complete neighborhoods the knob is irrelevant because the
	// piggybacked counters already terminate without any Allreduce.
	TermEpoch int
	// PipeDepth sets the async exchange engine's pipeline depth: how
	// many rounds of boundary messages may be in flight at once
	// (default 2). Depths of 4 and above let Harmonic Centrality run
	// PipeDepth/2 of its independent BFS waves concurrently on the
	// shared pipeline, cutting its per-source Allreduces and
	// round-latency stalls; results stay bit-identical at every depth.
	// Values 1 and below (other than 0 = default) are rejected.
	// Ignored in sync mode.
	PipeDepth int
	// ThreadsPerRank fans each rank's relaxation and frontier-expansion
	// sweeps across worker threads (the paper's OpenMP threads per MPI
	// task). The repo-wide rule: 0 (or negative) selects one worker per
	// core (par.DefaultThreads), an explicit 1 runs serial. Analytics
	// results are bit-identical at every thread count.
	ThreadsPerRank int
}

// RunAnalytics distributes the generator's graph over ranks simulated
// nodes according to parts (vertex gid -> node, as produced by any
// partitioner with p == ranks) and executes the paper's six analytics
// (HC, KC, LP, PR, SCC, WCC) on the synchronous exchange engine.
// RunAnalyticsCfg exposes the full configuration.
func RunAnalytics(g *Generator, parts []int32, ranks int, hcSources int) ([]AnalyticResult, error) {
	return RunAnalyticsCfg(g, parts, AnalyticsConfig{Ranks: ranks, HCSources: hcSources})
}

// RunAnalyticsCfg is RunAnalytics with an explicit configuration,
// including the exchange-engine selection.
func RunAnalyticsCfg(g *Generator, parts []int32, cfg AnalyticsConfig) ([]AnalyticResult, error) {
	rep, err := RunAnalyticsReport(g, parts, cfg)
	return rep.Results, err
}

// AnalyticsReport bundles one distributed analytics run's per-analytic
// results with its communication counters — the analytics counterpart
// of Report for partitioning runs.
type AnalyticsReport struct {
	// Results holds the six analytics' records in Fig. 8 order.
	Results []AnalyticResult
	// ReductionOps is the number of Allreduce operations the analytics
	// performed (rank 0's count; the collectives are symmetric).
	// Synchronous runs pay one per iteration for termination counters
	// and PageRank's fused dangling-mass/norm reduction; async runs
	// piggyback those on the boundary value messages and drop to a
	// handful per analytic on complete rank neighborhoods.
	ReductionOps int64
	// ExchangeVolume is the total element volume all ranks sent during
	// the analytics (graph construction excluded).
	ExchangeVolume int64
}

// RunAnalyticsReport is RunAnalyticsCfg with communication counters.
func RunAnalyticsReport(g *Generator, parts []int32, cfg AnalyticsConfig) (AnalyticsReport, error) {
	if cfg.Ranks < 1 {
		cfg.Ranks = 1
	}
	if int64(len(parts)) != g.N {
		return AnalyticsReport{}, fmt.Errorf("repro: %d part assignments for %d vertices", len(parts), g.N)
	}
	for v, pt := range parts {
		if pt < 0 || int(pt) >= cfg.Ranks {
			return AnalyticsReport{}, fmt.Errorf("repro: vertex %d assigned node %d outside [0,%d)", v, pt, cfg.Ranks)
		}
	}
	if err := validatePipeDepth(cfg.PipeDepth); err != nil {
		return AnalyticsReport{}, err
	}
	var out AnalyticsReport
	var runErr error
	mpi.RunThreads(cfg.Ranks, par.ResolveThreads(cfg.ThreadsPerRank), func(c *mpi.Comm) {
		rep, err := RunAnalyticsComm(c, g, parts, cfg)
		if c.Rank() == 0 {
			out, runErr = rep, err
		}
	})
	return out, runErr
}

// RunAnalyticsComm is the per-rank body of RunAnalyticsReport: it runs
// this rank's share of the analytics on an existing communicator — the
// entry point for externally formed worlds (one OS process per rank
// over a socket transport). AnalyticsConfig.Ranks is ignored; the
// communicator defines the world. Parts must map every vertex into
// [0, c.Size()). Every rank returns the same report.
func RunAnalyticsComm(c *mpi.Comm, g *Generator, parts []int32, cfg AnalyticsConfig) (AnalyticsReport, error) {
	if int64(len(parts)) != g.N {
		return AnalyticsReport{}, fmt.Errorf("repro: %d part assignments for %d vertices", len(parts), g.N)
	}
	for v, pt := range parts {
		if pt < 0 || int(pt) >= c.Size() {
			return AnalyticsReport{}, fmt.Errorf("repro: vertex %d assigned node %d outside [0,%d)", v, pt, c.Size())
		}
	}
	if err := validatePipeDepth(cfg.PipeDepth); err != nil {
		return AnalyticsReport{}, err
	}
	dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
		dgraph.PartsDist{Parts: parts})
	if err != nil {
		panic(err) // parts validated above; construction is total
	}
	dg.SetPipeDepth(cfg.PipeDepth) // before the exchanger exists
	dg.SetAsyncExchange(cfg.AsyncExchange)
	dg.SetTermEpoch(cfg.TermEpoch)
	c.ResetStats()
	res := analytics.RunAll(dg, cfg.HCSources)
	vol := mpi.AllreduceScalar(c, c.Stats().ElemsSent, mpi.Sum)
	// Normal-path teardown: stop the exchanger's drainer goroutine.
	// Deliberately not deferred — on a panic the world is poisoned and
	// the finalizer backstops, whereas a blocking Close during
	// unwinding could wait on messages that never come.
	dg.Close()
	return AnalyticsReport{
		Results: res,
		// The volume Allreduce above is not part of the run.
		ReductionOps:   c.Stats().ReductionOps - 1,
		ExchangeVolume: vol,
	}, nil
}

// validatePipeDepth rejects pipeline depths dgraph.SetPipeDepth would
// panic on, turning the misconfiguration into an error at the facade.
func validatePipeDepth(d int) error {
	if d != 0 && d < dgraph.MinPipeDepth {
		return fmt.Errorf("repro: PipeDepth = %d, need 0 (default) or >= %d", d, dgraph.MinPipeDepth)
	}
	return nil
}

// SpMVResult reports one distributed SpMV experiment.
type SpMVResult = spmv.Result

// SpMV layout names.
const (
	Layout1D = "1d"
	Layout2D = "2d"
)

// SpMVConfig drives a distributed SpMV run.
type SpMVConfig struct {
	// Ranks is the number of simulated MPI ranks (default 1).
	Ranks int
	// Layout places nonzeros: Layout1D or Layout2D.
	Layout string
	// Iterations is the number of chained multiplies (default 100).
	Iterations int
	// AsyncExchange replaces the expand/fold Alltoallv collectives
	// with nonblocking point-to-point messages over the precomputed
	// schedules, bypassing self-destined shares entirely. The checksum
	// is bit-identical; sent-value volume is lower.
	AsyncExchange bool
	// ThreadsPerRank fans each rank's row-sum kernel and fold
	// accumulation across worker threads. The repo-wide rule: 0 (or
	// negative) selects one worker per core (par.DefaultThreads), an
	// explicit 1 runs serial. Checksums are bit-identical at every
	// thread count.
	ThreadsPerRank int
}

// RunSpMV executes iters chained sparse matrix-vector products of the
// graph's adjacency matrix on ranks simulated nodes, with the vector
// distributed by parts and nonzeros placed by the named layout ("1d"
// row layout, or "2d" processor-grid layout per Boman et al.), on the
// synchronous exchange engine. RunSpMVCfg exposes the full
// configuration.
func RunSpMV(g *Graph, parts []int32, ranks int, layout string, iters int) (SpMVResult, error) {
	return RunSpMVCfg(g, parts, SpMVConfig{Ranks: ranks, Layout: layout, Iterations: iters})
}

// RunSpMVCfg is RunSpMV with an explicit configuration, including the
// exchange-engine selection.
func RunSpMVCfg(g *Graph, parts []int32, cfg SpMVConfig) (SpMVResult, error) {
	var l spmv.Layout
	switch cfg.Layout {
	case Layout1D:
		l = spmv.OneD
	case Layout2D:
		l = spmv.TwoD
	default:
		return SpMVResult{}, fmt.Errorf("repro: unknown layout %q (1d|2d)", cfg.Layout)
	}
	if cfg.Ranks < 1 {
		cfg.Ranks = 1
	}
	var out SpMVResult
	var runErr error
	mpi.RunThreads(cfg.Ranks, par.ResolveThreads(cfg.ThreadsPerRank), func(c *mpi.Comm) {
		res, err := spmv.Run(c, g, parts, spmv.Options{Layout: l, Iterations: cfg.Iterations, Async: cfg.AsyncExchange})
		if c.Rank() == 0 {
			out, runErr = res, err
		}
	})
	return out, runErr
}
