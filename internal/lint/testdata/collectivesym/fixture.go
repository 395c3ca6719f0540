// Package fixture reproduces the conditional-collective deadlock
// shapes (the PR 4 bug) for the collectivesym analyzer. It is
// type-checked by the analyzer tests, never run.
package fixture

import (
	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// condBarrier is the canonical bug: rank 0 enters the barrier, every
// other rank walks past it and the job hangs.
func condBarrier(c *mpi.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want "reachable only under rank-local condition"
	}
	c.Barrier() // symmetric: every rank reaches it
}

// guardClause hides the asymmetry behind an early return.
func guardClause(c *mpi.Comm, v int64) int64 {
	if c.Rank() != 0 {
		return 0
	}
	return mpi.AllreduceScalar(c, v, mpi.Sum) // want "rank-local"
}

// rankVar branches on a rank-named local instead of the call.
func rankVar(c *mpi.Comm, v int64) {
	rank := c.Rank()
	if rank == 0 {
		mpi.AllreduceScalar(c, v, mpi.Sum) // want "branches on rank"
	}
}

// mapOrder: map iteration order differs per process, so the number
// and order of collective calls does too.
func mapOrder(c *mpi.Comm, work map[int32][]int64) {
	for _, vals := range work {
		mpi.Allreduce(c, vals, mpi.Sum) // want "map iteration order"
	}
}

// condFlush is the exchange-engine variant: a Flush that only some
// ranks perform leaves the others' drainers waiting on messages that
// never come.
func condFlush(c *mpi.Comm, ex *dgraph.DeltaExchanger, q []dgraph.Update) {
	ex.BeginTally(0)
	if c.Rank() == 0 {
		q, _ = ex.FlushTally(q, nil) // want "FlushTally"
	} else {
		q, _ = ex.FlushTally(q, nil) // want "FlushTally"
	}
	_ = q
}

// condClose: tearing down the graph on one rank only strands its
// neighbors' drainers.
func condClose(c *mpi.Comm, g *dgraph.Graph) {
	if c.Rank() == 0 {
		g.Close() // want "Graph.Close"
	}
}

// condTransportBarrier: the Transport surface is collective too — a
// barrier called through the interface under a rank guard is the same
// deadlock as the Comm-level shape.
func condTransportBarrier(tr mpi.Transport) {
	if tr.Rank() == 0 {
		tr.Barrier() // want "Transport.Barrier"
	}
	tr.Barrier()
}

// condSocketAllreduce: direct calls on a concrete wire transport are
// covered as well.
func condSocketAllreduce(st *mpi.SocketTransport, v []int64) {
	if st.Rank() == 0 {
		st.AllreduceI64(v, mpi.Sum) // want "SocketTransport.AllreduceI64"
	}
}

// condSocketBarrier: the shape the socket transport's collective
// watchdog (SocketConfig.CollTimeout) turns from a silent hang into a
// runtime panic on the stragglers — the analyzer rejects it before a
// world ever runs, watchdog or not.
func condSocketBarrier(st *mpi.SocketTransport) {
	if st.Rank() == 0 {
		st.Barrier() // want "SocketTransport.Barrier"
	}
	st.Barrier()
}

// parBodyCollective: a collective inside a par worker body runs off
// the comm's main goroutine while sibling workers sweep on — the
// intra-rank deadlock shape the parallel-sweep refactor must never
// reintroduce.
func parBodyCollective(c *mpi.Comm, g *dgraph.Graph, vals []int64, n int) {
	par.For(0, n, 2, func(i int) {
		mpi.AllreduceScalar(c, int64(i), mpi.Sum) // want "par.For worker body"
	})
	par.ForChunk(0, n, 2, func(lo, hi, tid int) {
		g.Exchanger().BeginValues(nil, vals, nil) // want "par.ForChunk worker body"
	})
}

// parBodyRoundOp: DeltaExchanger round ops are collective too — a
// worker posting or flushing a round while its siblings are still
// sweeping hangs the world exactly like a bare collective.
func parBodyRoundOp(ex *dgraph.DeltaExchanger, changed []int32, payload []int64, n int) {
	par.ForChunk(0, n, 4, func(lo, hi, tid int) {
		ex.BeginValues(changed, payload, nil) // want "par.ForChunk worker body"
	})
	_ = par.ReduceInt64(0, n, 4, func(i int) int64 {
		ex.FlushValues() // want "par.ReduceInt64 worker body"
		return 0
	})
}

// parBodyNested: the guard survives into literals nested inside the
// worker body.
func parBodyNested(c *mpi.Comm, n int) {
	par.For(0, n, 2, func(i int) {
		f := func() {
			c.Barrier() // want "par.For worker body"
		}
		f()
	})
}

// symmetric shapes below must produce no findings.

// parThenRound is the sanctioned schedule: sweep in parallel, then
// drive the round from the main goroutine between sweeps.
func parThenRound(g *dgraph.Graph, changed []int32, vals []int64, n int) {
	par.ForChunk(0, n, 4, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			vals[i]++
		}
	})
	ex := g.Exchanger()
	ex.BeginValues(changed, vals, nil)
	ex.FlushValues()
}

// parOrderedFoldThenAllreduce: reductions fold locally on workers and
// the collective runs after the join.
func parOrderedFoldThenAllreduce(c *mpi.Comm, x []float64, scratch []float64) float64 {
	s, _ := par.SumFloat64Ordered(0, len(x), 0, scratch, func(lo, hi int) float64 {
		var t float64
		for i := lo; i < hi; i++ {
			t += x[i]
		}
		return t
	})
	return float64(mpi.AllreduceScalar(c, int64(s), mpi.Sum))
}

func symmetricRounds(ex *dgraph.DeltaExchanger, q []dgraph.Update) []dgraph.Update {
	ex.Begin()
	return ex.Flush(q)
}

func loopOverCounts(c *mpi.Comm, v int64) {
	nranks := c.Size()
	for i := 0; i < nranks; i++ {
		mpi.AllreduceScalar(c, v, mpi.Sum) // a count of ranks is symmetric
	}
}

func rankInsideCondExpr(c *mpi.Comm, v int64) {
	// The collective appears in the condition itself: every rank
	// evaluates it.
	if mpi.AllreduceScalar(c, v, mpi.Max) > 0 {
		_ = v
	}
}

// barrierHelper wraps a collective in a same-package helper: calls to
// it are collective calls for symmetry purposes.
func barrierHelper(c *mpi.Comm) {
	c.Barrier()
}

// condHelperCall is the interprocedural shape of the canonical bug:
// the collective hides one call level down, but only rank 0 gets
// there.
func condHelperCall(c *mpi.Comm) {
	if c.Rank() == 0 {
		barrierHelper(c) // want "barrierHelper, which performs collective"
	}
	barrierHelper(c)
}

// symmetricHelperCall reaches the same helper on every rank: clean.
func symmetricHelperCall(c *mpi.Comm) {
	barrierHelper(c)
}

// deepHelperChain pushes the collective two hops down; propagation is
// bounded but covers this depth.
func deepHelperChain(c *mpi.Comm) {
	if c.Rank() == 0 {
		hopOne(c) // want "hopOne, which performs collective"
	}
	hopOne(c)
}

func hopOne(c *mpi.Comm) { hopTwo(c) }
func hopTwo(c *mpi.Comm) { c.Barrier() }
