package mpi

import "fmt"

// procTransport is the in-process Transport: one goroutine per rank
// sharing a world of publication slots (collectives) and per-pair FIFO
// mailboxes (point-to-point), with transfer copies drawn from a shared
// buffer pool so the zero-copy recycling fast path spans sender and
// receiver. It is the transport Run/RunThreads build, and the reference
// implementation the socket transport must match bit-for-bit.
type procTransport struct {
	w    *world
	rank int
}

// NewProcWorld builds an in-process world of n ranks and returns the
// per-rank transports. All transports share one address space; RunWorld
// (or Run, which wraps it) executes a rank function on each.
func NewProcWorld(n int) []Transport {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: NewProcWorld with %d ranks", n))
	}
	w := newWorld(n)
	ts := make([]Transport, n)
	for r := range ts {
		ts[r] = &procTransport{w: w, rank: r}
	}
	return ts
}

func (p *procTransport) Rank() int { return p.rank }
func (p *procTransport) Size() int { return p.w.size }

// Send64 copies data into a pooled buffer and enqueues it on the
// (p.rank, dst) mailbox; completion is eager.
//
//repro:hotpath
func (p *procTransport) Send64(dst int, tag uint32, data []int64) {
	if dst < 0 || dst >= p.w.size {
		panic(fmt.Sprintf("mpi: Isend64 to rank %d outside [0,%d)", dst, p.w.size))
	}
	cp := p.w.pool.get(len(data))
	copy(cp, data)
	p.w.box(p.rank, dst).put(message{data: cp, tag: tag})
}

// Recv64 dequeues the oldest message from src.
//
//repro:hotpath
func (p *procTransport) Recv64(src int) ([]int64, uint32) {
	if src < 0 || src >= p.w.size {
		panic(fmt.Sprintf("mpi: Recv64 from rank %d outside [0,%d)", src, p.w.size))
	}
	msg := p.w.box(src, p.rank).take()
	return msg.data, msg.tag
}

//repro:hotpath
func (p *procTransport) Recycle64(buf []int64) {
	p.w.pool.put(buf)
}

func (p *procTransport) Barrier() {
	p.w.bar.wait()
}

// Abort poisons the shared world so every rank blocked in a collective
// or a point-to-point wait unwinds.
func (p *procTransport) Abort() { p.w.poisonAll() }

// Close is a no-op: the world is shared by all ranks and dies with the
// process; there are no per-rank resources to release.
func (p *procTransport) Close() error { return nil }

// publish writes v into this rank's slot and synchronizes so all slots
// are visible; the returned release function must be called after the
// caller has finished reading other ranks' slots.
func (p *procTransport) publish(v any) (release func()) {
	p.w.slots[p.rank] = v
	p.w.bar.wait()
	return func() {
		p.w.bar.wait()
		p.w.slots[p.rank] = nil
	}
}

func (p *procTransport) slot(r int) any { return p.w.slots[r] }

// Typed collectives: thin instantiations of the slot-based algorithms
// below, the reference the socket transport is held to.

func (p *procTransport) AllreduceI64(vals []int64, op Op) []int64 {
	return allreduceSlots(p, vals, op)
}

func (p *procTransport) AllreduceF64(vals []float64, op Op) []float64 {
	return allreduceSlots(p, vals, op)
}

func (p *procTransport) BcastI64(root int, data []int64) []int64 {
	return bcastSlots(p, root, data)
}

func (p *procTransport) AllgathervI64(data []int64) [][]int64 {
	return allgathervSlots(p, data)
}

func (p *procTransport) AlltoallvI64(send []int64, counts []int) ([]int64, []int) {
	return alltoallvSlots(p, send, counts)
}

func (p *procTransport) AlltoallvF64(send []float64, counts []int) ([]float64, []int) {
	return alltoallvSlots(p, send, counts)
}

// allreduceSlots reduces vals element-wise across all ranks in
// ascending rank order over the publication slots.
func allreduceSlots[T Number](pt *procTransport, vals []T, op Op) []T {
	release := pt.publish(vals)
	out := make([]T, len(vals))
	first := pt.slot(0).([]T)
	if len(first) != len(vals) {
		release()
		panic("mpi: Allreduce length mismatch across ranks")
	}
	copy(out, first)
	for r := 1; r < pt.Size(); r++ {
		contrib := pt.slot(r).([]T)
		if len(contrib) != len(vals) {
			release()
			panic("mpi: Allreduce length mismatch across ranks")
		}
		foldVec(out, contrib, op)
	}
	release()
	return out
}

// foldVec folds contrib into acc element-wise with op; the shared
// reduction kernel of every transport (acc must be the lower rank's
// running value so the fold order stays ascending).
func foldVec[T Number](acc, contrib []T, op Op) {
	switch op {
	case Sum:
		for i, v := range contrib {
			acc[i] += v
		}
	case Max:
		for i, v := range contrib {
			if v > acc[i] {
				acc[i] = v
			}
		}
	case Min:
		for i, v := range contrib {
			if v < acc[i] {
				acc[i] = v
			}
		}
	}
}

// bcastSlots distributes root's data to every rank over the slots.
func bcastSlots[T any](pt *procTransport, root int, data []T) []T {
	var pub any
	if pt.Rank() == root {
		pub = data
	}
	release := pt.publish(pub)
	src := pt.slot(root).([]T)
	out := make([]T, len(src))
	copy(out, src)
	release()
	return out
}

// allgathervSlots collects a variable-length slice from each rank.
func allgathervSlots[T any](pt *procTransport, data []T) [][]T {
	release := pt.publish(data)
	out := make([][]T, pt.Size())
	for r := 0; r < pt.Size(); r++ {
		src := pt.slot(r).([]T)
		cp := make([]T, len(src))
		copy(cp, src)
		out[r] = cp
	}
	release()
	return out
}

// vPayload is what each rank publishes during Alltoallv: its packed send
// buffer plus the per-destination counts and exclusive offsets.
type vPayload[T any] struct {
	buf     []T
	counts  []int
	offsets []int
}

// alltoallvSlots performs the variable-size personalized exchange over
// the slots; counts are validated by the Comm wrapper.
func alltoallvSlots[T any](pt *procTransport, sendBuf []T, sendCounts []int) (recv []T, recvCounts []int) {
	offsets := alltoallvOffsets(len(sendBuf), sendCounts, pt.Size())
	release := pt.publish(vPayload[T]{buf: sendBuf, counts: sendCounts, offsets: offsets})
	size := pt.Size()
	me := pt.Rank()
	recvCounts = make([]int, size)
	rtotal := 0
	for r := 0; r < size; r++ {
		p := pt.slot(r).(vPayload[T])
		recvCounts[r] = p.counts[me]
		rtotal += recvCounts[r]
	}
	recv = make([]T, 0, rtotal)
	for r := 0; r < size; r++ {
		p := pt.slot(r).(vPayload[T])
		seg := p.buf[p.offsets[me]:p.offsets[me+1]]
		recv = append(recv, seg...)
	}
	release()
	return recv, recvCounts
}

// alltoallvOffsets validates an Alltoallv send layout and returns the
// exclusive prefix offsets; shared by every transport.
func alltoallvOffsets(bufLen int, sendCounts []int, size int) []int {
	if len(sendCounts) != size {
		panic(fmt.Sprintf("mpi: Alltoallv counts length %d != world size %d", len(sendCounts), size))
	}
	offsets := make([]int, size+1)
	for r, n := range sendCounts {
		if n < 0 {
			panic("mpi: Alltoallv negative send count")
		}
		offsets[r+1] = offsets[r] + n
	}
	if offsets[size] != bufLen {
		panic(fmt.Sprintf("mpi: Alltoallv counts sum %d != buffer length %d", offsets[size], bufLen))
	}
	return offsets
}
