// Package analytics implements the six distributed graph analytics of
// the paper's Fig. 8 experiment (algorithms from Slota, Rajamanickam,
// and Madduri, IPDPS 2016 [29]): Harmonic Centrality (HC), approximate
// K-Core decomposition (KC), Label Propagation community detection
// (LP), PageRank (PR), largest "strongly" connected component
// extraction (SCC), and Weakly Connected Components (WCC).
//
// Every analytic runs collectively on a dgraph shard with the paper's
// pattern: rank-local compute over owned vertices, boundary value
// exchange each iteration, and a global termination test — so
// per-analytic runtime responds to partition quality (cut size drives
// exchange volume) exactly as in the paper. Each analytic is written
// once, as a loop of rounds on the graph's dgraph.Exchanger: the
// exchange and the termination test of an iteration are one round,
// whose tally or convergence counter the exchanger settles. The engine
// Graph.SetAsyncExchange selects decides the cost: the bulk-synchronous
// engine pays an Alltoallv and an Allreduce per round; the delta
// engine runs the rounds split-phase — interior vertices are relaxed
// while boundary values are in flight — and, on complete rank
// neighborhoods, carries the counters on the value messages as tally
// frames (see overlap.go), with no per-round Allreduce. Results are
// bit-identical across engines.
//
// Substitution note: the paper runs SCC on a directed web crawl. Our
// generated proxies are undirected, so SCC here performs the
// forward/backward double-sweep of the FW-BW algorithm from a
// max-degree pivot (two reachability passes plus the trim phase). On a
// symmetric graph both sweeps reach the same set; the communication
// profile — the expensive part Fig. 8 measures — is preserved.
package analytics

import (
	"math"
	"slices"
	"time"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// Result reports one analytic's execution.
type Result struct {
	// Name is the analytic's short code (HC, KC, LP, PR, SCC, WCC).
	Name string
	// Iterations is the number of global rounds executed.
	Iterations int
	// Time is the wall-clock duration on this rank.
	Time time.Duration
	// SweepTime is the wall-clock time this rank spent inside the
	// intra-rank relaxation/expansion sweeps (the compute the
	// thread budget parallelizes), excluding communication.
	SweepTime time.Duration
	// Value is an analytic-specific scalar result (for example the
	// number of components for WCC, or the largest component size).
	Value float64
}

// PageRank runs iters rounds of damped PageRank and returns the owned
// vertices' ranks (indexed by local id) plus the result record.
//
// Dangling mass (degree-0 owned vertices) is redistributed uniformly,
// keeping the rank vector a distribution. Each iteration's dangling
// partial is the float tally of its value round, so the exchanger
// settles it with the boundary exchange: piggybacked and folded in
// global rank order on a complete neighbourhood, by one Allreduce
// otherwise. The last iteration's mass would go unused and is not
// sent, and the norm is reduced once, after the loop. Ranks are
// bit-identical on both engines.
//
//repro:deterministic
//repro:timing
func PageRank(g *dgraph.Graph, iters int, damping float64) ([]float64, Result) {
	start := time.Now()
	n := float64(g.NGlobal)
	vals := make([]float64, g.NTotal())
	next := make([]float64, g.NLocal)
	for i := range vals {
		vals[i] = 1.0 / n
	}
	e := newEngine(g)
	bnd, inr := g.BoundaryVertices(), g.InteriorVertices()

	// deg0 lists the dangling owned vertices ascending. Their next
	// value is exactly the iteration's base (no neighbors), which keeps
	// the next dangling partial computable before the interior sweep —
	// what lets it ride this round's messages.
	var deg0 []int32
	for v := 0; v < g.NLocal; v++ {
		if g.Degree(int32(v)) == 0 {
			deg0 = append(deg0, int32(v))
		}
	}

	// Prologue: global dangling mass of the uniform start.
	var danglingLocal float64
	for _, v := range deg0 {
		danglingLocal += vals[v]
	}
	dangling := mpi.AllreduceScalar(g.Comm, danglingLocal, mpi.Sum)

	// PageRank is already Jacobi (vals → next), so the sweeps
	// parallelize directly: each worker writes its own next[v] slots
	// from the round-frozen vals.
	var base float64
	relax := func(v int32) {
		var sum float64
		for _, u := range g.Neighbors(v) {
			sum += vals[u] / float64(g.Degrees[u])
		}
		next[v] = base + damping*sum
	}
	sweep := func(list []int32) {
		t0 := time.Now()
		par.For(0, len(list), e.threads, func(i int) { relax(list[i]) })
		e.sweepTime += time.Since(t0)
	}

	for it := 0; it < iters; it++ {
		base = (1-damping)/n + damping*dangling/n
		sweep(bnd)
		e.payload = e.payload[:0]
		for _, v := range bnd {
			e.payload = append(e.payload, int64(math.Float64bits(next[v])))
		}
		var tally *dgraph.Tally
		if it < iters-1 {
			// Next iteration's dangling partial: every dangling vertex
			// takes exactly base this iteration, summed per vertex.
			var dL float64
			for range deg0 {
				dL += base
			}
			e.tbuf[0] = int64(math.Float64bits(dL))
			e.tally = dgraph.Tally{Vals: e.tbuf[:], Float: true}
			tally = &e.tally
		}
		e.ex.BeginValues(bnd, e.payload, tally)
		sweep(inr)
		copy(vals[:g.NLocal], next)
		outL, outP, tr := e.ex.FlushValues()
		for i, lid := range outL {
			vals[lid] = math.Float64frombits(uint64(outP[i]))
		}
		if tally != nil {
			dangling = tr.FoldFloat(0)
		}
	}
	elapsed := time.Since(start)
	// The norm uses the ordered float reduction — a fixed chunk
	// decomposition folded in ascending chunk order — so it has the
	// same bits on both engines at every thread count.
	normSrc := vals[:g.NLocal]
	normL, _ := par.SumFloat64Ordered(0, g.NLocal, e.threads, nil, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += normSrc[i]
		}
		return s
	})
	norm := mpi.AllreduceScalar(g.Comm, normL, mpi.Sum)
	return vals[:g.NLocal], Result{Name: "PR", Iterations: iters, Time: elapsed, SweepTime: e.sweepTime, Value: norm}
}

// WCC labels every vertex with the minimum global id reachable from it
// (hook-free min-label propagation) and returns owned labels plus the
// component count.
//
//repro:deterministic
//repro:timing
func WCC(g *dgraph.Graph) ([]int64, Result) {
	start := time.Now()
	labels := make([]int64, g.NTotal())
	for lid, gid := range g.L2G {
		labels[lid] = gid
	}
	e := newEngine(g)
	relax := func(v int32, _ int) (int64, bool) {
		best := labels[v]
		for _, u := range g.Neighbors(v) {
			if labels[u] < best {
				best = labels[u]
			}
		}
		return best, best < labels[v]
	}
	iters := e.propagate(labels, relax, 0)
	// Count components: owned vertices whose label equals their gid.
	rootsLocal := par.ReduceInt64(0, g.NLocal, e.threads, func(v int) int64 {
		if labels[v] == g.L2G[v] {
			return 1
		}
		return 0
	})
	comps := mpi.AllreduceScalar(g.Comm, rootsLocal, mpi.Sum)
	return labels[:g.NLocal], Result{Name: "WCC", Iterations: iters, Time: time.Since(start), SweepTime: e.sweepTime, Value: float64(comps)}
}

// LabelProp runs up to iters rounds of plurality label propagation
// community detection and returns owned community labels plus the
// GLOBAL number of distinct communities (hash-partitioned exact count,
// identical on every rank — the LP analogue of WCC's component count).
// Result.Iterations reports the rounds actually executed, which is
// below iters when propagation reaches a fixed point early.
//
//repro:deterministic
//repro:timing
func LabelProp(g *dgraph.Graph, iters int) ([]int64, Result) {
	start := time.Now()
	labels := make([]int64, g.NTotal())
	for lid, gid := range g.L2G {
		labels[lid] = gid
	}
	e := newEngine(g)
	// One plurality-count map per worker thread: relax runs with the
	// sweep's tid and touches only its own scratch. The plurality pick
	// itself is map-iteration-order independent (max count, ties to the
	// smallest label), so the result does not depend on Go's randomized
	// map order.
	counts := make([]map[int64]int64, e.threads)
	for i := range counts {
		counts[i] = make(map[int64]int64, 64)
	}
	relax := func(v int32, tid int) (int64, bool) {
		cur := labels[v]
		nbrs := g.Neighbors(v)
		if len(nbrs) == 0 {
			return cur, false
		}
		c := counts[tid]
		clear(c)
		for _, u := range nbrs {
			c[labels[u]]++
		}
		best, bestN := cur, c[cur]
		for l, n := range c {
			if n > bestN || (n == bestN && l < best) {
				best, bestN = l, n
			}
		}
		return best, best != cur
	}
	ran := e.propagate(labels, relax, iters)
	comms := globalDistinct(g, labels[:g.NLocal])
	return labels[:g.NLocal], Result{Name: "LP", Iterations: ran, Time: time.Since(start), SweepTime: e.sweepTime, Value: float64(comms)}
}

// globalDistinct counts the distinct values among every rank's owned
// labels exactly. Labels are partitioned by hash: each rank ships its
// locally distinct labels to the owning counter rank, which dedupes
// what it receives, and one Allreduce sums the per-rank counts — so a
// community spanning several ranks is counted exactly once, unlike the
// old rank-local count, which disagreed across ranks and overcounted
// shared communities. Collective; every rank returns the same count.
func globalDistinct(g *dgraph.Graph, labels []int64) int64 {
	nprocs := g.Comm.Size()
	local := make(map[int64]struct{}, 64)
	for _, l := range labels {
		local[l] = struct{}{}
	}
	// Sort the locally distinct labels before filling the send buffer:
	// filling in map iteration order would make the wire bytes (the
	// order within each destination's segment) differ per run, breaking
	// frame-level replay even though the final count is unaffected.
	distinctLocal := make([]int64, 0, len(local))
	for l := range local {
		distinctLocal = append(distinctLocal, l)
	}
	slices.Sort(distinctLocal)
	counts := make([]int, nprocs)
	dest := func(l int64) int { return int(uint64(l) % uint64(nprocs)) }
	for _, l := range distinctLocal {
		counts[dest(l)]++
	}
	offsets := make([]int, nprocs+1)
	for r := 0; r < nprocs; r++ {
		offsets[r+1] = offsets[r] + counts[r]
	}
	sendBuf := make([]int64, offsets[nprocs])
	cursor := make([]int, nprocs)
	copy(cursor, offsets[:nprocs])
	for _, l := range distinctLocal {
		d := dest(l)
		sendBuf[cursor[d]] = l
		cursor[d]++
	}
	recv, _ := mpi.Alltoallv(g.Comm, sendBuf, counts)
	distinct := make(map[int64]struct{}, len(recv))
	for _, l := range recv {
		distinct[l] = struct{}{}
	}
	return mpi.AllreduceScalar(g.Comm, int64(len(distinct)), mpi.Sum)
}

// KCore computes the approximate k-core decomposition by iterated
// h-index refinement (each vertex's core estimate becomes the h-index
// of its neighbors' estimates), which converges to the exact coreness.
// maxIters bounds the rounds, matching the paper's approximate variant.
//
//repro:deterministic
//repro:timing
func KCore(g *dgraph.Graph, maxIters int) ([]int64, Result) {
	start := time.Now()
	core := make([]int64, g.NTotal())
	for lid := range core {
		core[lid] = g.Degrees[lid]
	}
	e := newEngine(g)
	// Per-thread h-index scratch: each worker owns one (hbuf, bkts)
	// pair, so the pooled-buffer discipline hIndex relies on survives
	// the parallel sweep.
	type hScratch struct{ hbuf, bkts []int64 }
	scratch := make([]hScratch, e.threads)
	for i := range scratch {
		scratch[i].hbuf = make([]int64, 0, 256)
		scratch[i].bkts = make([]int64, 0, 256)
	}
	relax := func(v int32, tid int) (int64, bool) {
		s := &scratch[tid]
		s.hbuf = s.hbuf[:0]
		for _, u := range g.Neighbors(v) {
			s.hbuf = append(s.hbuf, core[u])
		}
		var h int64
		h, s.bkts = hIndex(s.hbuf, s.bkts)
		return h, h < core[v]
	}
	localMax := func() int64 {
		return par.MaxInt64(0, g.NLocal, e.threads, 0, func(v int) int64 { return core[v] })
	}
	// Carry the owned coreness maximum next to the convergence counter:
	// when the run terminates through a counter the engine carried on
	// its messages, the estimates are final and the carried maximum
	// already is the global one — no trailing Allreduce. Runs cut short
	// by maxIters, and engines that reduce the counter by Allreduce,
	// fall back to one.
	e.aux = localMax
	iters := e.propagate(core, relax, maxIters)
	maxCore := e.auxVal
	if !e.auxOK {
		maxCore = mpi.AllreduceScalar(g.Comm, localMax(), mpi.Max)
	}
	return core[:g.NLocal], Result{Name: "KC", Iterations: iters, Time: time.Since(start), SweepTime: e.sweepTime, Value: float64(maxCore)}
}

// hIndex returns the largest h such that at least h values in vals are
// >= h, counting into buckets — a caller-pooled scratch buffer, reused
// across calls so KCore's per-vertex-per-round hot loop stays off the
// heap — and returns the (possibly grown) buffer for the next call.
//
//repro:hotpath
func hIndex(vals []int64, buckets []int64) (int64, []int64) {
	n := int64(len(vals))
	if n == 0 {
		return 0, buckets
	}
	// Counting by bucket up to n (values above n count as n).
	if cap(buckets) < int(n)+1 {
		buckets = make([]int64, n+1)
	} else {
		buckets = buckets[:n+1]
		for i := range buckets {
			buckets[i] = 0
		}
	}
	for _, v := range vals {
		if v > n {
			v = n
		}
		if v < 0 {
			v = 0
		}
		buckets[v]++
	}
	var cum int64
	for h := n; h >= 0; h-- {
		cum += buckets[h]
		if cum >= h {
			return h, buckets
		}
	}
	return 0, buckets
}
