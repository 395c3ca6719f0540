// Package dgraph implements the 1D distributed CSR the XtraPuLP
// reproduction computes on: each rank owns a contiguous-by-distribution
// slice of the vertex set, stores its owned vertices' adjacency with
// task-local ids, and mirrors one-hop remote neighbors as ghosts whose
// values (part labels, analytic scores) are refreshed by boundary
// exchanges.
//
// # Construction
//
// FromEdgeChunks builds the shard collectively from arbitrary edge-list
// chunks: arcs are shuffled to their head's owner, each rank assembles
// a local CSR, discovers ghosts, and fetches ghost degrees. The
// Distribution implementations (BlockDist, HashDist, PartsDist) map
// global vertex ids to owning ranks.
//
// # Boundary exchange: one round interface, two engines
//
// Every iterative algorithm on the shard pushes changed owned-vertex
// values to the ranks ghosting them (and, for frontier algorithms, the
// reverse), then reduces a global quantity. Both halves are one round
// of the Exchanger interface (exchanger.go): Begin* posts it, Flush*
// settles it and returns the received pairs plus the round's reduced
// tally (TallyRound) — part-size deltas, a float partial sum, or a
// convergence counter. The kernels are written once against it, and
// Graph.Exchanger hands out the engine SetAsyncExchange selected:
//
//   - BulkExchanger (bulk.go), the paper's bulk-synchronous baseline:
//     destinations are re-derived from the adjacency, (gid, value)
//     pairs ship through one world-wide mpi.Alltoallv per round, and a
//     round's tally costs one Allreduce. Depth 1; no collective at
//     construction.
//   - DeltaExchanger (delta.go): the boundary structure is precomputed
//     once — for every neighbor rank, the gid-sorted list of shared
//     vertices, derived independently and identically on both sides
//     of each pair — so updates name vertices by shared-list index,
//     travel as packed elements over nonblocking point-to-point
//     messages, and the receive side drains on a persistent background
//     goroutine concurrently with local compute. Rounds pipeline to a
//     construction-time depth (SetPipeDepth, default
//     DefaultPipeDepth), each stamped with its sequence number
//     (composed with an optional wave id, SetRoundWave) as an mpi
//     round tag; flushes settle rounds oldest-first. When every rank
//     neighbors every other, tallies ride the messages as frames
//     (mpi.AppendTally), kept per source so float sums fold in global
//     rank order, and a counted round's convergence counter rides the
//     next round's messages, one round late (TallyRound.Lag); on other
//     topologies Flush settles them by one exact Allreduce. Steady-state
//     rounds allocate nothing: encode buffers are per-exchanger arenas,
//     decode buffers are drainer arenas cycled modulo the depth, and
//     transfer copies come from the mpi buffer pool.
//
// Delta construction is collective (it runs the one-time
// rank-neighborhood completeness Allreduce so NeighborhoodComplete is
// a pure cached read), and every delta exchanger owns one drainer
// goroutine released by DeltaExchanger.Close — Graph.Close calls it at
// teardown; a finalizer exists only as a backstop for dropped
// exchangers. Both engines deliver identical results — the choice is
// pure transport, observable only in mpi.Stats traffic counters and
// wall time.
//
// # Hot-path annotation
//
// The steady-state delta-engine functions (round post/join, the
// Flush/Begin value flows) carry a //repro:hotpath directive as the
// last line of their doc comment: cmd/reprolint's hotpathalloc
// analyzer enforces that they perform no heap allocation beyond the
// sanctioned arena-growth idioms, turning the AllocsPerRun == 0
// regression tests into a compile-time guarantee. See
// docs/INVARIANTS.md for the rule and the full invariant catalogue.
package dgraph
