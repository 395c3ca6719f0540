package mpi

import (
	"fmt"
	"sync/atomic"
)

// world is the shared state of one in-process communicator group: the
// publication slots behind the collectives, the reusable barrier, the
// point-to-point mailboxes, and the pooled transfer buffers. It is
// created by Run (via NewProcWorld) and never escapes to user code
// except through Comm handles.
type world struct {
	size  int
	slots []any // one publication slot per rank, reused per collective
	bar   *barrier
	boxes []*mailbox // point-to-point FIFOs, indexed [src*size+dst]
	pool  pool64     // transfer-copy pool shared by sender and receiver
}

func newWorld(n int) *world {
	w := &world{
		size:  n,
		slots: make([]any, n),
		bar:   newBarrier(n),
		boxes: make([]*mailbox, n*n),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// poisonAll releases every rank parked in a collective or a
// point-to-point wait after a sibling panic.
func (w *world) poisonAll() {
	w.bar.poison()
	for _, b := range w.boxes {
		b.poison()
	}
}

// Comm is one rank's handle on the communicator: a Transport plus the
// per-rank traffic statistics, wrapped by the int64/float64 collectives
// and the pooled point-to-point calls. A Comm is confined to the
// goroutine that received it from Run (or built it with NewComm):
// collectives must be called from that goroutine only. The
// point-to-point operations (Isend64, Recv64, Recycle64) may
// additionally be completed from one helper goroutine concurrently with
// point-to-point traffic — or a collective — on the main goroutine:
// traffic counters are atomic, and the transports keep their
// point-to-point and collective synchronization states disjoint. The
// pipelined exchange engine relies on this (its drainer receives a
// posted round while the main goroutine enters an epoch Allreduce).
type Comm struct {
	t       Transport
	rank    int // cached Transport.Rank(), hot on every guard
	size    int // cached Transport.Size()
	threads int
	stats   Stats
}

// Stats accumulates per-rank communication counters. Volumes count
// elements — int64 or float64 words, 8 bytes each on every transport —
// not bytes or frames. All fields are maintained with atomic operations
// so point-to-point completions on a helper goroutine stay race-free.
type Stats struct {
	Collectives  int64 // number of collective operations entered
	ElemsSent    int64 // elements this rank sent (collectives + point-to-point)
	ElemsRecv    int64 // elements this rank received (collectives + point-to-point)
	ExchangeOps  int64 // Alltoallv calls (the partitioner's sync hot path)
	ReductionOps int64 // Allreduce calls
	SendOps      int64 // point-to-point sends started
	RecvOps      int64 // point-to-point receives completed
	TallyElems   int64 // elements of piggybacked tally framing appended to sends
}

// Rank returns this rank's id in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.size }

// Threads returns the intra-rank worker thread budget configured at Run
// time. Rank-local parallel loops (package par) use this value, playing
// the role of OMP_NUM_THREADS.
func (c *Comm) Threads() int { return c.threads }

// Transport returns the communicator's underlying transport, for code
// that manages transport lifecycles (worker mains, the conformance
// suite). Engine code should stay on the Comm API.
func (c *Comm) Transport() Transport { return c.t }

// fields enumerates every counter once; Stats and ResetStats both
// iterate it so a future field cannot be snapshot but not reset (or
// vice versa).
func (s *Stats) fields() []*int64 {
	return []*int64{
		&s.Collectives, &s.ElemsSent, &s.ElemsRecv,
		&s.ExchangeOps, &s.ReductionOps, &s.SendOps, &s.RecvOps,
		&s.TallyElems,
	}
}

// Stats returns a snapshot of this rank's communication counters.
func (c *Comm) Stats() Stats {
	var out Stats
	src, dst := c.stats.fields(), out.fields()
	for i := range src {
		*dst[i] = atomic.LoadInt64(src[i])
	}
	return out
}

// ResetStats zeroes the communication counters. It must not race with
// in-flight point-to-point completions.
func (c *Comm) ResetStats() {
	for _, p := range c.stats.fields() {
		atomic.StoreInt64(p, 0)
	}
}

// Run executes fn on nprocs simulated ranks, each on its own goroutine
// with one intra-rank worker thread, and returns when all ranks finish.
// Panics on any rank are re-raised on the caller after all other ranks
// are released (they would otherwise hang on the next barrier).
func Run(nprocs int, fn func(c *Comm)) {
	RunThreads(nprocs, 1, fn)
}

// RunThreads is Run with an explicit intra-rank thread budget, the
// equivalent of "one MPI task per node, OpenMP threads per task".
func RunThreads(nprocs, threadsPerRank int, fn func(c *Comm)) {
	if nprocs <= 0 {
		panic(fmt.Sprintf("mpi: Run with nprocs=%d", nprocs))
	}
	RunWorld(NewProcWorld(nprocs), threadsPerRank, fn)
}

// Barrier blocks until every rank in the world has entered it.
func (c *Comm) Barrier() {
	atomic.AddInt64(&c.stats.Collectives, 1)
	c.t.Barrier()
}

// Bcast distributes root's data to every rank. The root passes the
// source slice; all ranks (including the root) receive an independent
// copy. Non-root callers may pass nil.
func Bcast(c *Comm, root int, data []int64) []int64 {
	atomic.AddInt64(&c.stats.Collectives, 1)
	if c.rank == root {
		atomic.AddInt64(&c.stats.ElemsSent, int64(len(data)))
	}
	out := c.t.BcastI64(root, data)
	atomic.AddInt64(&c.stats.ElemsRecv, int64(len(out)))
	return out
}

// Allgatherv collects a variable-length slice from each rank; out[r] is
// an independent copy of rank r's contribution.
func Allgatherv(c *Comm, data []int64) [][]int64 {
	atomic.AddInt64(&c.stats.Collectives, 1)
	atomic.AddInt64(&c.stats.ElemsSent, int64(len(data)))
	out := c.t.AllgathervI64(data)
	total := 0
	for _, p := range out {
		total += len(p)
	}
	atomic.AddInt64(&c.stats.ElemsRecv, int64(total))
	return out
}

// Alltoallv performs a variable-size personalized exchange. sendBuf
// holds the data for all destinations packed contiguously in rank order;
// sendCounts[r] elements go to rank r. It returns the received data
// packed in source-rank order along with per-source counts.
func Alltoallv[T Number](c *Comm, sendBuf []T, sendCounts []int) (recv []T, recvCounts []int) {
	alltoallvOffsets(len(sendBuf), sendCounts, c.size) // validate on every transport
	atomic.AddInt64(&c.stats.Collectives, 1)
	atomic.AddInt64(&c.stats.ExchangeOps, 1)
	atomic.AddInt64(&c.stats.ElemsSent, int64(len(sendBuf)))
	switch v := any(sendBuf).(type) {
	case []int64:
		r, rc := c.t.AlltoallvI64(v, sendCounts)
		recv, recvCounts = any(r).([]T), rc
	case []float64:
		r, rc := c.t.AlltoallvF64(v, sendCounts)
		recv, recvCounts = any(r).([]T), rc
	}
	atomic.AddInt64(&c.stats.ElemsRecv, int64(len(recv)))
	return recv, recvCounts
}

// Op selects the reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

// Number is the constraint for the element types the typed collectives
// move: the two word encodings every Transport carries.
type Number interface {
	int64 | float64
}

// Allreduce reduces vals element-wise across all ranks with the given
// operator and returns the result (identical on every rank). All ranks
// must pass slices of the same length. Contributions fold in ascending
// rank order on every transport, so floating-point results are
// bit-identical between in-process and socket worlds.
func Allreduce[T Number](c *Comm, vals []T, op Op) []T {
	atomic.AddInt64(&c.stats.Collectives, 1)
	atomic.AddInt64(&c.stats.ReductionOps, 1)
	atomic.AddInt64(&c.stats.ElemsSent, int64(len(vals)))
	var out []T
	switch v := any(vals).(type) {
	case []int64:
		out = any(c.t.AllreduceI64(v, op)).([]T)
	case []float64:
		out = any(c.t.AllreduceF64(v, op)).([]T)
	}
	atomic.AddInt64(&c.stats.ElemsRecv, int64(len(out)))
	return out
}

// AllreduceScalar reduces a single value across ranks.
func AllreduceScalar[T Number](c *Comm, v T, op Op) T {
	return Allreduce(c, []T{v}, op)[0]
}

// NeighborhoodComplete reports whether every rank's communication
// neighborhood covers the whole world: each rank passes the number of
// DISTINCT peer ranks its schedule exchanges with, and the result is
// true exactly when that count is Size()-1 on every rank. This is the
// one-time collective detection behind every piggybacked-reduction
// optimization (the delta exchanger's tally folds, SpMV's ∞-norm
// ride): on a complete neighborhood, per-peer message frames already
// reach — and arrive from — every rank, so folding them reproduces a
// world-wide reduction exactly. It is a collective (one Allreduce);
// every rank must call it unconditionally at the same point.
func NeighborhoodComplete(c *Comm, neighbors int) bool {
	full := int64(0)
	if neighbors == c.Size()-1 {
		full = 1
	}
	return AllreduceScalar(c, full, Min) == 1
}
