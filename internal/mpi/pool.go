package mpi

import (
	"math/bits"
	"sync"
)

// pool64 is the free list backing the pooled int64 point-to-point path
// (Isend64/Recv64/Recycle64), segregated into power-of-two capacity
// classes: bucket b holds buffers of capacity exactly 1<<b, so get and
// put are O(1) under the lock. Size classes matter: exchange rounds mix
// tiny tally-only messages with large dense payloads, and a single
// first-fit list would burn large buffers on small messages,
// re-allocating large ones forever. Pool residency is bounded by the
// number of in-flight messages, so after a warmup round the buckets
// reach their steady sizes and exchange rounds stop allocating.
//
// The in-process transport owns one pool per world (sender and receiver
// share an address space, so the same buffer travels the whole path);
// the socket transport owns one per process (receive buffers are
// decoded into pooled storage and recycled locally).
type pool64 struct {
	mu      sync.Mutex
	buckets [64][][]int64
}

// buf64Class returns the capacity class of a request for n > 0
// elements: the smallest b with 1<<b >= n.
func buf64Class(n int) int {
	return bits.Len64(uint64(n) - 1)
}

// get pops a pooled buffer from the request's capacity class, or
// allocates one of exactly that class when the bucket is empty (so the
// buffer returns to the same bucket on recycle). n == 0 returns a
// canonical empty slice: zero has no capacity class, and an empty
// message needs no storage.
//
//repro:hotpath
func (p *pool64) get(n int) []int64 {
	if n == 0 {
		return empty64
	}
	c := buf64Class(n)
	p.mu.Lock()
	if bucket := p.buckets[c]; len(bucket) > 0 {
		last := len(bucket) - 1
		b := bucket[last]
		bucket[last] = nil
		p.buckets[c] = bucket[:last]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	//lint:ignore hotpathalloc pool-miss allocation refills the bucket; steady state reuses recycled buffers
	return make([]int64, n, 1<<c)
}

// put returns a buffer to its capacity-class bucket; zero-capacity
// buffers (the canonical empty message) are dropped.
//
//repro:hotpath
func (p *pool64) put(buf []int64) {
	if cap(buf) == 0 {
		return
	}
	c := buf64Class(cap(buf))
	p.mu.Lock()
	p.buckets[c] = append(p.buckets[c], buf)
	p.mu.Unlock()
}

// empty64 is the shared zero-length payload of empty pooled messages;
// it is never written through.
var empty64 = make([]int64, 0)
