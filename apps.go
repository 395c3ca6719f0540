package repro

import (
	"fmt"

	"repro/internal/analytics"
	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/spmv"
)

// AnalyticResult reports one distributed analytic's execution.
type AnalyticResult = analytics.Result

// AnalyticsConfig drives a distributed analytics run.
type AnalyticsConfig struct {
	// HCSources bounds the harmonic centrality BFS count (the paper
	// uses 100).
	HCSources int
	// AsyncExchange runs the analytics' boundary exchanges on the
	// async delta engine (split-phase rounds with piggybacked
	// convergence counters) instead of the bulk-synchronous Alltoallv.
	// Results are identical; exchanged-element volume is lower.
	AsyncExchange bool
}

// AnalyticsReport bundles one distributed analytics run's per-analytic
// results with its communication counters — the analytics counterpart
// of Report for partitioning runs.
type AnalyticsReport struct {
	// Results holds the six analytics' records in Fig. 8 order.
	Results []AnalyticResult
	// ReductionOps is the number of Allreduce operations the analytics
	// performed (the reporting rank's count; the collectives are
	// symmetric). Synchronous runs pay one per iteration for
	// termination counters and PageRank's fused dangling-mass/norm
	// reduction; async runs piggyback those on the boundary value
	// messages and drop to a handful per analytic on complete rank
	// neighborhoods.
	ReductionOps int64
	// ExchangeVolume is the total element volume all ranks sent during
	// the analytics (graph construction excluded).
	ExchangeVolume int64
}

// checkParts validates a vertex → rank placement for a world of size
// ranks: one entry per vertex, each in [0, size).
func checkParts(parts []int32, n int64, size int) error {
	if int64(len(parts)) != n {
		return fmt.Errorf("repro: %d part assignments for %d vertices", len(parts), n)
	}
	for v, pt := range parts {
		if pt < 0 || int(pt) >= size {
			return fmt.Errorf("repro: vertex %d assigned node %d outside [0,%d)", v, pt, size)
		}
	}
	return nil
}

// RunAnalytics distributes the generator's graph over w according to
// parts (vertex gid -> rank, as produced by any partitioner with
// p == w.Size()) and executes the paper's six analytics (HC, KC, LP,
// PR, SCC, WCC). It returns the calling rank's report (rank 0's on a
// Local world); the results are identical on every rank. The async
// engine's pipeline depth is a dgraph.Graph setting (SetPipeDepth)
// and stays at its default here.
func RunAnalytics(w World, g *Generator, parts []int32, cfg AnalyticsConfig) (AnalyticsReport, error) {
	if err := checkParts(parts, g.N, w.Size()); err != nil {
		return AnalyticsReport{}, err
	}
	return runOn(w, func(c *mpi.Comm) (AnalyticsReport, error) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.PartsDist{Parts: parts})
		if err != nil {
			panic(err) // parts validated above; construction is total
		}
		dg.SetAsyncExchange(cfg.AsyncExchange)
		c.ResetStats()
		res := analytics.RunAll(dg, cfg.HCSources)
		vol := mpi.AllreduceScalar(c, c.Stats().ElemsSent, mpi.Sum)
		// Normal-path teardown: stop the exchanger's drainer goroutine.
		// Deliberately not deferred — on a panic the world is poisoned
		// and the finalizer backstops, whereas a blocking Close during
		// unwinding could wait on messages that never come.
		dg.Close()
		return AnalyticsReport{
			Results: res,
			// The volume Allreduce above is not part of the run.
			ReductionOps:   c.Stats().ReductionOps - 1,
			ExchangeVolume: vol,
		}, nil
	})
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
	// Layout places nonzeros: Layout1D (row layout) or Layout2D
	// (processor-grid layout per Boman et al.).
	Layout string
	// Iterations is the number of chained multiplies (default 100).
	Iterations int
	// AsyncExchange replaces the expand/fold Alltoallv collectives
	// with nonblocking point-to-point messages over the precomputed
	// schedules, bypassing self-destined shares entirely. The checksum
	// is bit-identical; sent-value volume is lower.
	AsyncExchange bool
}

// RunSpMV executes chained sparse matrix-vector products of the
// graph's adjacency matrix on w, with the vector distributed by parts
// (vertex gid -> rank) and nonzeros placed by cfg.Layout. It returns
// the calling rank's result (rank 0's on a Local world); the checksum
// is identical on every rank and at every thread count.
func RunSpMV(w World, g *Graph, parts []int32, cfg SpMVConfig) (SpMVResult, error) {
	var l spmv.Layout
	switch cfg.Layout {
	case Layout1D:
		l = spmv.OneD
	case Layout2D:
		l = spmv.TwoD
	default:
		return SpMVResult{}, fmt.Errorf("repro: unknown layout %q (1d|2d)", cfg.Layout)
	}
	if err := checkParts(parts, g.N, w.Size()); err != nil {
		return SpMVResult{}, err
	}
	return runOn(w, func(c *mpi.Comm) (SpMVResult, error) {
		return spmv.Run(c, g, parts, spmv.Options{Layout: l, Iterations: cfg.Iterations, Async: cfg.AsyncExchange})
	})
}
