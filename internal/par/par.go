// Package par provides intra-rank thread-level parallelism: a parallel
// for-loop over index ranges with static chunking, parallel reductions,
// and thread-local buffers that merge into a shared queue. It plays the
// role OpenMP plays inside each MPI task in the original XtraPuLP code:
// every simulated rank can fan work out across a configurable number of
// worker threads.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultThreads is the worker count used when a caller passes
// threads <= 0. It mirrors "number of shared-memory cores" from the
// paper's experimental setup.
func DefaultThreads() int {
	return runtime.GOMAXPROCS(0)
}

// ResolveThreads normalizes a thread-count knob to the repo-wide rule:
// any value <= 0 selects DefaultThreads() (one worker per core), and a
// positive value — including the bit-reproducible serial 1 — is taken
// as given. Every thread-budget knob (repro.Local, -threads) routes
// through this so the facade, pulp, analytics, and SpMV agree on what
// 0 means.
func ResolveThreads(n int) int {
	if n <= 0 {
		return DefaultThreads()
	}
	return n
}

// For runs body(i) for every i in [begin, end) using the given number of
// worker goroutines with contiguous static chunks (OpenMP "schedule
// (static)"). With threads <= 1 or a small range it runs inline.
//
//repro:deterministic
func For(begin, end int, threads int, body func(i int)) {
	n := end - begin
	if n <= 0 {
		return
	}
	if threads <= 0 {
		threads = DefaultThreads()
	}
	if threads > n {
		threads = n
	}
	if threads == 1 {
		for i := begin; i < end; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := begin + t*chunk
		hi := lo + chunk
		if hi > end {
			hi = end
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForChunk runs body(lo, hi, tid) on contiguous chunks of [begin, end),
// one chunk per worker thread. This is the idiom for loops that carry
// thread-local state (queues, count arrays): the body receives its
// thread id and processes its whole chunk.
//
//repro:deterministic
func ForChunk(begin, end int, threads int, body func(lo, hi, tid int)) {
	n := end - begin
	if n <= 0 {
		return
	}
	if threads <= 0 {
		threads = DefaultThreads()
	}
	if threads > n {
		threads = n
	}
	if threads == 1 {
		body(begin, end, 0)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := begin + t*chunk
		hi := lo + chunk
		if hi > end {
			hi = end
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi, tid int) {
			defer wg.Done()
			body(lo, hi, tid)
		}(lo, hi, t)
	}
	wg.Wait()
}

// ReduceInt64 computes the sum of body(i) over [begin, end) in parallel.
//
//repro:deterministic
func ReduceInt64(begin, end int, threads int, body func(i int) int64) int64 {
	var total atomic.Int64
	ForChunk(begin, end, threads, func(lo, hi, _ int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += body(i)
		}
		total.Add(local)
	})
	return total.Load()
}

// MaxInt64 computes the maximum of body(i) over [begin, end) in parallel.
// It returns the provided identity when the range is empty.
//
//repro:deterministic
func MaxInt64(begin, end int, threads int, identity int64, body func(i int) int64) int64 {
	if end <= begin {
		return identity
	}
	var mu sync.Mutex
	global := identity
	ForChunk(begin, end, threads, func(lo, hi, _ int) {
		local := identity
		for i := lo; i < hi; i++ {
			if v := body(i); v > local {
				local = v
			}
		}
		mu.Lock()
		if local > global {
			global = local
		}
		mu.Unlock()
	})
	return global
}

// floatFoldGrain is the fixed chunk length of SumFloat64Ordered. The
// decomposition depends only on the range, never on the thread count,
// so the per-chunk partials — and therefore the serial in-order fold —
// are bit-identical at every thread count, the same way TallyRound's
// FoldFloat folds per-rank partials in global rank order.
const floatFoldGrain = 4096

// SumFloat64Ordered sums body(lo, hi) over [begin, end) with a
// deterministic fold order: the range is cut into fixed-length chunks
// (independent of threads), workers fill the per-chunk partials, and
// the partials are folded serially in ascending chunk index. Floating
// addition is not associative, so an unordered reduction would drift
// with the thread count; this one is bit-identical across thread
// counts, including the threads=1 inline path, which uses the same
// decomposition.
//
// partials is caller-pooled scratch: pass the slice returned by the
// previous call (or nil) and it is grown only until steady state,
// keeping hot loops at AllocsPerRun == 0. body must itself sum its
// [lo, hi) sub-range in ascending index order.
//
//repro:deterministic
func SumFloat64Ordered(begin, end, threads int, partials []float64, body func(lo, hi int) float64) (float64, []float64) {
	n := end - begin
	if n <= 0 {
		return 0, partials
	}
	nchunks := (n + floatFoldGrain - 1) / floatFoldGrain
	partials = growFloats(partials, nchunks)
	threads = ResolveThreads(threads)
	if threads > nchunks {
		threads = nchunks
	}
	if threads == 1 {
		fillPartials(begin, end, partials, body)
	} else {
		fillPartialsParallel(begin, end, threads, partials, body)
	}
	return foldOrdered(partials), partials
}

// fillPartialsParallel is the multi-worker arm of SumFloat64Ordered.
// It lives in its own function so the goroutine closure's captures
// cannot force heap cells onto the threads=1 inline path.
func fillPartialsParallel(begin, end, threads int, partials []float64, body func(lo, hi int) float64) {
	nchunks := len(partials)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for ci := t; ci < nchunks; ci += threads {
				lo := begin + ci*floatFoldGrain
				hi := lo + floatFoldGrain
				if hi > end {
					hi = end
				}
				partials[ci] = body(lo, hi)
			}
		}(t)
	}
	wg.Wait()
}

// fillPartials is the serial arm of SumFloat64Ordered: same chunk
// decomposition as the parallel arm, one worker.
//
//repro:hotpath
func fillPartials(begin, end int, partials []float64, body func(lo, hi int) float64) {
	for ci := range partials {
		lo := begin + ci*floatFoldGrain
		hi := lo + floatFoldGrain
		if hi > end {
			hi = end
		}
		partials[ci] = body(lo, hi)
	}
}

// foldOrdered folds the per-chunk partials in ascending chunk index —
// the deterministic serial fold both arms share.
//
//repro:hotpath
func foldOrdered(partials []float64) float64 {
	var total float64
	for _, p := range partials {
		total += p
	}
	return total
}

// growFloats re-slices buf to n elements, allocating only when the
// pooled capacity is exceeded (the arena-grow idiom).
//
//repro:hotpath
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// MaxFloat64 computes the maximum of body(i) over [begin, end) in
// parallel, returning identity on an empty range. Max is
// order-independent, so unlike summation it needs no ordered fold.
//
//repro:deterministic
func MaxFloat64(begin, end int, threads int, identity float64, body func(i int) float64) float64 {
	if end <= begin {
		return identity
	}
	var mu sync.Mutex
	global := identity
	ForChunk(begin, end, threads, func(lo, hi, _ int) {
		local := identity
		for i := lo; i < hi; i++ {
			if v := body(i); v > local {
				local = v
			}
		}
		mu.Lock()
		if local > global {
			global = local
		}
		mu.Unlock()
	})
	return global
}

// Queues is a set of per-thread append-only buffers that merge into one
// slice, mirroring the paper's Qthread -> Qtask merge. Type parameter T
// is the queued record type (for example a (vertex, part) pair).
type Queues[T any] struct {
	lanes [][]T
}

// NewQueues returns thread-local queues for the given worker count.
func NewQueues[T any](threads int) *Queues[T] {
	if threads <= 0 {
		threads = DefaultThreads()
	}
	return &Queues[T]{lanes: make([][]T, threads)}
}

// Push appends v to thread tid's lane. Each tid must be used by at most
// one goroutine at a time. Lanes keep their capacity across Merge /
// MergeInto / Reset, so steady-state pushes do not allocate.
//
//repro:hotpath
func (q *Queues[T]) Push(tid int, v T) {
	q.lanes[tid] = append(q.lanes[tid], v)
}

// Merge concatenates all lanes into a single slice (Qtask) and resets
// the lanes for reuse. Ordering is by thread id, then push order.
func (q *Queues[T]) Merge() []T {
	total := 0
	for _, l := range q.lanes {
		total += len(l)
	}
	out := make([]T, 0, total)
	for i, l := range q.lanes {
		out = append(out, l...)
		q.lanes[i] = q.lanes[i][:0]
	}
	return out
}

// MergeInto appends every lane's records to dst in thread-id order
// (then push order, like Merge) and resets the lanes for reuse. It is
// Merge without the allocation: pass a pooled buffer re-sliced to
// [:0] and steady-state merges stay at AllocsPerRun == 0.
//
//repro:hotpath
func (q *Queues[T]) MergeInto(dst []T) []T {
	for i, l := range q.lanes {
		dst = append(dst, l...)
		q.lanes[i] = q.lanes[i][:0]
	}
	return dst
}

// Reset empties every lane without releasing its capacity.
//
//repro:hotpath
func (q *Queues[T]) Reset() {
	for i := range q.lanes {
		q.lanes[i] = q.lanes[i][:0]
	}
}

// Threads reports the number of lanes.
func (q *Queues[T]) Threads() int { return len(q.lanes) }

// Len reports the total queued element count across lanes.
func (q *Queues[T]) Len() int {
	total := 0
	for _, l := range q.lanes {
		total += len(l)
	}
	return total
}

// PrefixSums returns the exclusive prefix sums of counts with one extra
// trailing element holding the grand total, matching the offsets arrays
// used throughout the communication routines.
func PrefixSums(counts []int) []int {
	out := make([]int, len(counts)+1)
	for i, c := range counts {
		out[i+1] = out[i] + c
	}
	return out
}
