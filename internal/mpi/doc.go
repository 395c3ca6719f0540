// Package mpi provides the communicator that stands in for MPI in the
// XtraPuLP reproduction. Ranks interact only through collective
// operations (Barrier, Bcast, Allgatherv, Alltoallv, Allreduce) and
// pooled point-to-point messages (Isend64, Recv64, Recycle64) — exactly
// the operation set the distributed partitioner and its downstream
// applications use. Every payload is a vector of int64 or float64
// words: Bcast and Allgatherv move int64, Alltoallv and Allreduce move
// either, and point-to-point messages carry int64 (float64 values ride
// as their math.Float64bits words).
//
// # Pluggable transport
//
// The rank substrate is the Transport interface: rank identity, the
// pooled int64 point-to-point triple (Send64/Recv64/Recycle64), the
// typed collectives, and Abort/Close. That word surface is the whole
// rank API — Comm adds only statistics — so one call runs one protocol
// on either implementation:
//
//   - The in-process world (Run/RunThreads/RunWorld): each rank is a
//     goroutine, messages move through shared-memory mailboxes, and
//     collectives read each other's publication slots without
//     serialization. This is the default and the fast path — its
//     steady-state exchange rounds keep the AllocsPerRun == 0
//     guarantee.
//   - The socket transport (DialSocket/NewSocketWorld): each rank is
//     its own OS process, connected pairwise over Unix or TCP sockets
//     carrying internal/wire frames. Rendezvous comes from explicit
//     SocketConfig or the REPRO_RANK/REPRO_SIZE/REPRO_NET/REPRO_ADDRS
//     environment a launcher (cmd/reprorun) sets, and is bounded by
//     SocketConfig.Timeout — DefaultRendezvousTimeout (30s) when zero;
//     SocketConfigFromEnv rejects a non-positive REPRO_TIMEOUT rather
//     than let it disable the deadline. Within the deadline each peer
//     connection retries transient dial and handshake failures with
//     jittered exponential backoff (SocketConfig.Retry), and the
//     optional liveness knobs (SocketConfig.Heartbeat, CollTimeout)
//     turn a dead peer or a skipped collective into a named per-peer
//     failure instead of a hang — see the "Failure semantics" section
//     of docs/ARCHITECTURE.md for the full retry/watchdog state
//     machine.
//
// Both transports fold reductions in ascending rank order, so
// floating-point collective results — and therefore partitions and
// analytics values — are bit-identical across substrates at fixed
// seeds. internal/mpitest's RunTransportConformance holds every
// implementation to the same contract, including a chaos tier that
// injects resets, truncation, stalls, and peer kills through
// mpitest.ChaosProxy.
//
// # Semantics
//
// Semantics mirror MPI's: every rank in the world must call the same
// sequence of collectives, and receive buffers are fresh copies — ranks
// never alias each other's memory through the communicator, so code
// written against this package has true distributed-memory discipline.
// Deadlock (a rank skipping a collective, or receiving a message never
// sent) manifests as a hang, as it would under MPI; tests guard the
// communication contracts instead.
//
// # Point-to-point mailboxes and ordering
//
// Each ordered rank pair (src, dst) owns one unbounded FIFO mailbox.
// Messages between a pair are delivered in send order (MPI's
// non-overtaking guarantee) while messages from different sources are
// independent. Isend64 models an eager/buffered transport: the payload
// is copied at call time, the send completes immediately, and the
// sender may reuse its buffer. A Recv64 matches the oldest undelivered
// message from its source; protocols that interleave several logical
// message kinds on the same pair (boundary updates, value pushes,
// piggybacked tallies) therefore stay matched as long as every rank
// issues the same sequence of exchange operations — the same
// discipline collectives require.
//
// Messages may carry a round tag (Isend64Tag/Recv64Tag). Tags never
// affect matching — delivery stays strict FIFO per pair — but a
// round-structured receiver can assert that the frame it dequeued
// belongs to the round it is draining, which turns a skewed pipelined
// exchange (one rank a round ahead) into an immediate panic naming
// both rounds instead of silently mis-decoded payloads.
//
// Unlike the collectives, the point-to-point operations are safe to
// complete from one helper goroutine concurrently with point-to-point
// traffic — or a collective — on the rank's main goroutine (all
// traffic counters are atomic, mailboxes are locked, and the mailbox
// and barrier synchronization states are disjoint). This is what lets
// a rank drain incoming boundary updates on a background goroutine
// while its main goroutine is still computing (communication/
// computation overlap), and lets the pipelined exchange engine keep a
// posted round draining while the main goroutine enters an epoch
// Allreduce.
//
// # Poison-on-panic
//
// When any rank panics, Run poisons the barrier and every mailbox so
// sibling ranks blocked in a collective or a point-to-point wait wake
// up and unwind (as barrierPoisoned panics) instead of hanging; the
// original panic is then re-raised on the caller. Code that receives on
// a helper goroutine must ferry a recovered panic back to the rank's
// main goroutine and re-raise it there, so Run's per-rank recovery
// observes it — a panic escaping on a bare goroutine would kill the
// whole process.
//
// # Traffic statistics and piggyback framing
//
// The communicator records per-rank traffic statistics (element volume,
// collective counts, point-to-point counts) so experiments can report
// communication cost. AppendTally and SplitTally implement the framing
// that piggybacks small reduction payloads ("tallies", e.g. per-part
// size deltas or convergence counters) onto point-to-point messages,
// which is how the partitioner's and the analytics' asynchronous modes
// retire their per-iteration Allreduces.
//
// # Pooled buffers
//
// Isend64, Recv64, and Comm.Recycle64 are allocation-free: transfer
// copies are drawn from a size-class buffer pool (one per in-process
// world, one per socket process) and returned to it by the receiver
// after decoding. Once the pool reaches the transport's in-flight
// high-water mark (a warmup round or two), steady-state exchange
// rounds perform no heap allocation. Recycling is optional; a receiver
// that keeps a payload simply never returns it.
//
// # Hot-path annotation
//
// Functions on the steady-state exchange path (the mailbox put/take
// pair, Isend64Tag, recv64, Recycle64, the tally framing) carry a
// //repro:hotpath directive as the last line of their doc comment. The
// directive is a machine-checked promise: cmd/reprolint's hotpathalloc
// analyzer rejects any heap allocation in an annotated function except
// the sanctioned arena-growth idioms (growth under a cap/len guard,
// self-append, panic arguments). See docs/INVARIANTS.md.
package mpi
