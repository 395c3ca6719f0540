// Package core implements XTRAPULP, the paper's distributed-memory
// label-propagation partitioner (Algorithms 1–5): BFS-style random-root
// initialization, vertex balancing with degree-weighted label
// propagation, constrained refinement, and the edge-balancing stage for
// the multi-constraint multi-objective problem. Part-assignment updates
// are damped by the dynamic multiplier
//
//	mult = nprocs × ((X−Y)·iter_tot/I_tot + Y)
//
// which linearly tightens each rank's per-iteration quota of moves into
// any part, preventing the oscillation that occurs when thousands of
// ranks concurrently discover the same underweight part (§III.C).
//
// # Iteration structure and exchange modes
//
// Each inner iteration runs rank-local label propagation across worker
// threads, ships the changed boundary labels to the ranks ghosting
// them, and settles the global per-part size estimates the weighting
// functions read. Options.Exchange selects the transport:
//
//   - ExchangeSync: a world-wide Alltoallv carries the updates, and a
//     world-wide Allreduce settles the per-iteration size deltas — two
//     global barriers per iteration.
//   - ExchangeAsyncDelta: updates travel as packed per-neighbor
//     point-to-point messages (dgraph.DeltaExchanger) posted before
//     the propagation loop and drained concurrently with it, and the
//     size-delta tallies piggyback on those same messages, so an
//     iteration ends with no global barrier at all. Every rank folds
//     its own deltas plus its neighbors' piggybacked tallies into its
//     estimates; Options.SizeEpoch schedules exact Allreduce resyncs
//     that bound the estimate staleness on topologies where some rank
//     pairs share no boundary. When every rank neighbors every other —
//     detected collectively at startup — the folded sums are already
//     exact, resyncs are unnecessary, and the async partition matches
//     the synchronous one bit-for-bit at equal seeds.
//
// Partition reports the exchanged-element volume and Allreduce count
// of a run (Report.ExchangeVolume, Report.ReductionOps) so the two
// modes can be compared; the harness "exchange" experiment does
// exactly that.
//
// # Per-vertex cost
//
// A label-propagation sweep costs O(m) per iteration, independent of
// the part count p: the stage bodies do O(deg(v)) work per vertex in
// the common case.
//
//   - Touched-parts scan. Each worker keeps a dense per-part count
//     array that is all zero between vertices. A vertex with fewer than
//     p/2 neighbours tallies its neighbours into it and lists the parts
//     on first touch; the stage then caps, weights and argmaxes only the
//     listed parts, clearing each as it goes. A vertex with more
//     neighbours scans all p parts, which then costs no more than its
//     tally. A part with no neighbour has count 0 and can never win,
//     because every comparison is a strict > against the vertex's own
//     score, which is ≥ 0. The list is not in index order, so the
//     argmax reproduces the index-order scan explicitly: candidate i
//     replaces the choice (best, w) when c > best, or when c == best,
//     w ≠ x and i < w — the lowest-index maximum above the own part x
//     wins, and x keeps v on ties with its own score. The refine
//     stages check the receiver cap only for a candidate that would
//     win; the check has no side effects, so list order picks what
//     index order picks. Degree sums are tallied as integers, which
//     equal the float64 sums in neighbour order because every partial
//     sum is below 2^53; partitions are bit-identical to the dense scan.
//   - Edge-balance load bound. Edge balance falls back to two O(p)
//     scans for a vertex in an edge-overweight part that found no
//     neighbouring receiver: a teleport to the most edge-underweight
//     part, then a rotated search for a strictly balance-improving
//     move. Both accept only a part i ≠ x that passes the vertex cap
//     and whose load L_i = se[i] + nprocs·ce[i] satisfies L_i + deg(v) ≤
//     Imbe (teleport) or L_i + 2·deg(v) ≤ the donor's estimate and L_i ≤
//     Imbe (rotation). On skewed graphs whose hubs outweigh the per-part
//     budget nearly every such scan finds nothing. A lower bound on L_i
//     over the parts passing the vertex cap is computed exactly at the
//     start of each iteration and lowered to the donor's new load on
//     every move, since within an iteration only a donor can lose load
//     or newly pass the vertex cap. When the bound proves both scans
//     fail they are skipped; when it does not and it is no longer
//     exact, it is recomputed once and tested again. The skip is exact:
//     every load is an integer below 2^53, so the float comparisons in
//     the scans and in the bound test agree.
//   - Remaining O(p) path. Vertex balance falls back to the globally
//     most underweight part when no neighbouring part attracts v. That
//     scan mostly succeeds, so no bound skips it, and it stays O(p) per
//     call.
package core
