package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// partScan is one worker thread's scratch for tallying a vertex's
// neighbours by part. counts is all zero between vertices: the stage
// bodies clear every entry they visit while scanning the parts tally
// returns, and every nonzero entry is among those parts. Degree sums
// are tallied as integers: each partial sum is below 2^53, so the
// float64 of the sum equals the float64 sum in neighbour order.
type partScan struct {
	counts  []int64
	touched []int32
	all     []int32 // 0, 1, …, p−1
}

// newPartScans allocates the scratch of threads workers over p parts.
func newPartScans(threads, p int) []partScan {
	all := make([]int32, p)
	for i := range all {
		all[i] = int32(i)
	}
	scans := make([]partScan, threads)
	for t := range scans {
		scans[t] = partScan{counts: make([]int64, p), touched: make([]int32, 0, p), all: all}
	}
	return scans
}

// tally adds one per neighbour of v into counts, by the neighbour's
// part, and returns the parts that may have a nonzero count. A vertex
// with fewer than p/2 neighbours gets the list of the parts it touched,
// in first-touch order, so the caller's scan costs O(deg(v)). Any
// other vertex gets all parts: its scan then costs O(deg(v)) anyway,
// and the dense tally skips the first-touch branch, which costs more
// than the short dense scan at small p.
func (ps *partScan) tally(s *state, v int32) []int32 {
	nbrs := s.g.Neighbors(v)
	if 2*len(nbrs) < len(ps.counts) {
		return ps.touch(s, nbrs, nil)
	}
	counts := ps.counts
	for _, u := range nbrs {
		counts[s.loadPart(u)]++
	}
	return ps.all
}

// tallyDegrees is tally with each neighbour weighted by its degree. It
// is a separate loop rather than a flag on tally because a
// per-neighbour branch measurably slowed the dense tally at p = 2.
func (ps *partScan) tallyDegrees(s *state, v int32) []int32 {
	nbrs := s.g.Neighbors(v)
	if 2*len(nbrs) < len(ps.counts) {
		return ps.touch(s, nbrs, s.g.Degrees)
	}
	counts, deg := ps.counts, s.g.Degrees
	for _, u := range nbrs {
		counts[s.loadPart(u)] += deg[u]
	}
	return ps.all
}

// touch is the sparse tally: it adds each neighbour's weight (its
// degree, or one when deg is nil) and lists each part on first touch.
// Neighbours have degree at least 1, so a touched part's count is
// nonzero.
func (ps *partScan) touch(s *state, nbrs []int32, deg []int64) []int32 {
	counts, touched := ps.counts, ps.touched[:0]
	for _, u := range nbrs {
		pu := s.loadPart(u)
		if counts[pu] == 0 {
			touched = append(touched, pu)
		}
		if deg == nil {
			counts[pu]++
		} else {
			counts[pu] += deg[u]
		}
	}
	return touched
}

// better reports whether part i with score c replaces the current
// choice w with score best for a vertex in part x. Applied over the
// candidates in any order, starting from (score of x, x), it picks
// what a scan in index order with a strict > picks: the lowest-index
// part with the highest score, or x when no part scores above x.
func better[S int64 | float64](c, best S, i, w, x int32) bool {
	if c <= best {
		return w != x && c == best && i < w
	}
	return true
}

// loadBound is a lower bound on the edge load L_i = se[i] + nprocs·ce[i]
// over the parts i that pass the edge-balance vertex cap. It lets
// edgeBalance skip its two O(p) fallback scans when neither can find a
// receiver. Within an iteration only a donor part can lose load or
// newly pass the vertex cap, so every move lowers the bound to the
// donor's new load; recompute makes it exact again.
type loadBound struct {
	lb    atomic.Int64 // read without mu by noReceiver
	exact atomic.Bool
	// mu orders recompute against lower: a move's ce update either
	// precedes recompute's read of it or is followed by a lower that
	// waits for recompute to finish.
	mu sync.Mutex
}

// load returns part i's edge load under the worst-case multiplier.
func (s *state) load(i int) int64 {
	return s.se[i] + int64(s.g.Comm.Size())*atomic.LoadInt64(&s.ce[i])
}

// recompute sets the bound to the exact minimum load over the parts
// that pass the vertex cap (math.MaxInt64 when none does).
func (b *loadBound) recompute(s *state) {
	b.mu.Lock()
	defer b.mu.Unlock()
	capMult := float64(s.g.Comm.Size())
	lb := int64(math.MaxInt64)
	for i := 0; i < s.p; i++ {
		cvi := float64(atomic.LoadInt64(&s.cv[i]))
		if float64(s.sv[i])+capMult*cvi+1 > s.imbV {
			continue
		}
		lb = min(lb, s.load(i))
	}
	b.lb.Store(lb)
	b.exact.Store(true)
}

// lower records a move out of a part whose load is now l.
func (b *loadBound) lower(l int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lb.Store(min(b.lb.Load(), l))
	b.exact.Store(false)
}

// noReceiver reports whether the bound proves that neither fallback
// scan of edgeBalance can place a vertex of degree dv from a donor with
// estimated load estEx: the teleport scan needs L_i + dv ≤ imbE, the
// rotated scan L_i + 2dv ≤ estEx and L_i ≤ imbE. An inexact bound that
// proves nothing is recomputed once and tested again. Every load is an
// integer below 2^53, so the float sums are exact and the test agrees
// with the scans' own comparisons.
func (b *loadBound) noReceiver(s *state, dv, estEx float64) bool {
	fails := func() bool {
		lb := float64(b.lb.Load())
		return lb+dv > s.imbE && (lb > s.imbE || lb+2*dv > estEx)
	}
	if fails() {
		return true
	}
	if b.exact.Load() {
		return false
	}
	b.recompute(s)
	return fails()
}
