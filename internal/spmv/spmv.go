// Package spmv implements distributed sparse matrix–vector
// multiplication over graph adjacency matrices, reproducing the
// paper's Table III experiment: SpMV time under one-dimensional row
// layouts derived from any vertex partition, and two-dimensional
// layouts including the Boman–Devine–Rajamanickam mapping of a 1D
// partition onto a processor grid [6].
//
// The matrix is the (symmetric) adjacency matrix with unit values. One
// multiply performs the classic expand → local multiply → fold
// sequence: vector owners send needed x entries to the ranks holding
// matrix nonzeros in their columns, each rank multiplies its local
// nonzeros, and partial row sums are folded back to the row's vector
// owner. Under a 1D layout the fold is rank-local; under 2D both
// phases touch only a processor row/column, which is what accelerates
// skewed graphs in Table III.
//
// Both phases run on either of two transports (Options.Async): the
// bulk-synchronous world-wide Alltoallv, or nonblocking point-to-point
// messages over the precomputed per-peer schedules with a local-copy
// bypass for self-destined shares. The numerics are identical; only
// traffic and synchronization differ.
package spmv

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/par"
)

// Layout selects the nonzero-to-rank mapping.
type Layout int

// Layouts.
const (
	// OneD assigns all nonzeros of row u to the rank owning vector
	// entry u.
	OneD Layout = iota
	// TwoD assigns nonzero (u, v) to the processor-grid rank combining
	// the row group of owner(u) with the column group of owner(v).
	TwoD
)

// String names the layout.
func (l Layout) String() string {
	if l == TwoD {
		return "2D"
	}
	return "1D"
}

// Options configures a run.
type Options struct {
	// Layout selects 1D or 2D nonzero placement.
	Layout Layout
	// Iterations is the number of chained multiplies (paper: 100).
	Iterations int
	// Async replaces the two world-wide Alltoallv collectives per
	// multiply with nonblocking point-to-point messages over the
	// precomputed expand/fold schedules: each rank sends only to the
	// peers its schedule names, and the self share — the entire fold
	// under a 1D layout — bypasses the transport as a local copy. The
	// numerics are bit-identical to the synchronous engine (values,
	// fill order, and accumulation order are unchanged); only traffic
	// and synchronization differ.
	//
	// Async mode additionally piggybacks the power iteration's
	// per-iteration ∞-norm on the expand messages when the expand
	// schedule's rank neighborhood is complete (detected collectively
	// once per run): normalization is deferred one iteration — each
	// rank ships its still-unnormalized vector entries plus its local
	// norm contribution, and receivers fold the global max (exact in
	// any order) and divide while filling their x buffers — so
	// iterations perform zero AllreduceScalar, with one trailing
	// reduction settling the final normalization. On incomplete
	// neighborhoods the engine falls back to the exact per-iteration
	// Allreduce; 2D layouts confine each rank's expand traffic to its
	// processor column, so they always take the fallback — the
	// piggyback is effectively a 1D-layout optimization. Checksums
	// stay bit-identical either way (same IEEE divisions of the same
	// operands, only computed receiver-side).
	Async bool
}

// Result reports one SpMV experiment.
type Result struct {
	// Time is the wall clock for all iterations on this rank.
	Time time.Duration
	// CommVolume is the total number of vector/partial values this rank
	// sent across all iterations. The synchronous engine pushes
	// self-destined shares through the Alltoallv like any MPI
	// implementation and counts them; the async engine's local-copy
	// bypass counts only values sent to other ranks. The piggybacked
	// norm element is framing, not a vector value, and is not counted.
	CommVolume int64
	// Checksum is the final ∞-norm of the iterated vector (identical on
	// every rank; used to verify layout-independence of the numerics).
	Checksum float64
	// MultiplyTime is the wall clock this rank spent inside the local
	// row-sum kernel (localMultiply) across all iterations — the
	// compute the thread budget parallelizes, excluding all
	// communication.
	MultiplyTime time.Duration
	// Reductions is the number of Allreduce operations this rank
	// performed during Run: iterations+1 for the synchronous engine
	// (one norm per iteration plus the checksum), a small constant for
	// the async engine on complete rank neighborhoods (completeness
	// detection, the trailing deferred normalization, and the
	// checksum — independent of the iteration count).
	Reductions int64
	// NormPiggyback reports whether the async engine rode the
	// per-iteration ∞-norm on the expand messages (complete rank
	// neighborhood detected).
	NormPiggyback bool
}

// matrix is one rank's prepared SpMV state.
type matrix struct {
	c  *mpi.Comm
	p  int
	me int
	pr int // processor grid rows (1 for 1D)

	// Intra-rank parallel sweep state: worker count (Comm.Threads()),
	// the stored chunk bodies par.ForChunk fans out (bound once in
	// build, so the hot loops allocate no closures), the per-sweep
	// inputs those bodies read, and the accumulated kernel time. Every
	// parallel loop writes disjoint indices from phase-frozen inputs,
	// so results are bit-identical at every thread count.
	threads    int
	mulBody    func(lo, hi, tid int)
	foldBody   func(lo, hi, tid int)
	selfBody   func(lo, hi, tid int)
	divBody    func(lo, hi, tid int)
	foldDstIdx []int
	foldSeg    []float64
	divNorm    float64
	mulTime    time.Duration

	// Owned vector entries, sorted by gid.
	vecGIDs []int64
	vecIdx  map[int64]int
	x       []float64

	// Local nonzeros in CSR over present rows; columns are local
	// x-buffer indices.
	rowGIDs []int64
	rowPtr  []int64
	colIdx  []int32

	// Distinct column gids needed (sorted), aligned with xbuf.
	colGIDs []int64
	xbuf    []float64

	// Expand schedule: for each dst, the owned vector positions to send
	// (indices into x). Received values fill xbuf directly because
	// colGIDs is sorted (owner rank, gid) — the concatenation order of
	// the Alltoallv.
	expandSend [][]int

	// Fold schedule (2D): per dst, positions into rowGIDs to send; and
	// per src, the owned vector indices the incoming partials add into.
	foldSend [][]int
	foldRecv [][]int

	// Async engine state (Options.Async): xbuf segment offsets per
	// source rank, and the remote peers each phase actually touches.
	// The synchronous engine needs none of this — the Alltoallv counts
	// encode the same information per call.
	async     bool
	colOff    []int
	expandOut []int
	expandIn  []int
	foldOut   []int

	// Norm-piggyback state (async mode, complete expand neighborhood):
	// pendNorm is this rank's local ∞-norm contribution for the
	// deferred normalization — max |y| of the previous multiply, 1.0
	// before the first (dividing by it must be exact, and x/1.0 is).
	normPiggyback bool
	pendNorm      float64

	// y accumulators.
	partial []float64 // per present row
	y       []float64 // per owned vector entry

	// Reusable per-multiply wire state: the expand/fold send counts and
	// buffers of the synchronous engine, and the async engine's
	// per-peer staging words (math.Float64bits of each value) and fold
	// decode buffer. The schedules are fixed after build, so one warmup
	// multiply sizes them and steady-state iterations stop allocating.
	expandCounts []int
	foldCounts   []int
	expandBuf    []float64
	foldBuf      []float64
	peerBuf      []int64
	foldDec      []float64
}

// nzRank maps nonzero (u, v) to its rank for the given layout.
func nzRank(layout Layout, parts []int32, pr, pc int, u, v int64) int {
	ou, ov := int(parts[u]), int(parts[v])
	if layout == OneD {
		return ou
	}
	return ou%pr + pr*(ov%pc)
}

// gridDims factors p into pr × pc with pr as close to √p as possible.
func gridDims(p int) (pr, pc int) {
	pr = int(math.Sqrt(float64(p)))
	for pr > 1 && p%pr != 0 {
		pr--
	}
	if pr < 1 {
		pr = 1
	}
	return pr, p / pr
}

// build prepares the rank-local SpMV state. Every rank passes the same
// shared graph and global partition (simulation convenience: setup is
// not part of the timed region, matching the paper which times only
// the 100 SpMV operations).
func build(c *mpi.Comm, g *graph.Graph, parts []int32, layout Layout) (*matrix, error) {
	p := c.Size()
	me := c.Rank()
	if int64(len(parts)) != g.N {
		return nil, fmt.Errorf("spmv: %d part assignments for %d vertices", len(parts), g.N)
	}
	for v := int64(0); v < g.N; v++ {
		if int(parts[v]) >= p || parts[v] < 0 {
			return nil, fmt.Errorf("spmv: vertex %d part %d outside [0,%d)", v, parts[v], p)
		}
	}
	pr, pc := 1, p
	if layout == TwoD {
		pr, pc = gridDims(p)
	}
	m := &matrix{c: c, p: p, me: me, pr: pr, threads: c.Threads()}
	if m.threads < 1 {
		m.threads = 1
	}
	m.mulBody = m.mulChunk
	m.foldBody = m.foldAddChunk
	m.selfBody = m.foldSelfChunk
	m.divBody = m.divChunk

	// Owned vector entries.
	for v := int64(0); v < g.N; v++ {
		if int(parts[v]) == me {
			m.vecGIDs = append(m.vecGIDs, v)
		}
	}
	m.vecIdx = make(map[int64]int, len(m.vecGIDs))
	for i, gid := range m.vecGIDs {
		m.vecIdx[gid] = i
	}
	m.x = make([]float64, len(m.vecGIDs))
	m.y = make([]float64, len(m.vecGIDs))
	for i := range m.x {
		m.x[i] = 1.0 / float64(g.N)
	}

	// Local nonzeros: arcs (u -> v) with nzRank == me, grouped by row.
	type nz struct{ u, v int64 }
	var mine []nz
	for u := int64(0); u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if nzRank(layout, parts, pr, pc, u, v) == me {
				mine = append(mine, nz{u, v})
			}
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].u != mine[j].u {
			return mine[i].u < mine[j].u
		}
		return mine[i].v < mine[j].v
	})
	colSet := make(map[int64]int32)
	for i := 0; i < len(mine); {
		j := i
		for j < len(mine) && mine[j].u == mine[i].u {
			j++
		}
		m.rowGIDs = append(m.rowGIDs, mine[i].u)
		m.rowPtr = append(m.rowPtr, int64(i))
		i = j
	}
	m.rowPtr = append(m.rowPtr, int64(len(mine)))
	// Column index assignment happens after the receive order is fixed:
	// xbuf is filled src-major, then by gid, so colGIDs must be sorted
	// (owner-rank, gid).
	distinct := make(map[int64]struct{})
	for _, e := range mine {
		distinct[e.v] = struct{}{}
	}
	m.colGIDs = make([]int64, 0, len(distinct))
	for v := range distinct {
		m.colGIDs = append(m.colGIDs, v)
	}
	sort.Slice(m.colGIDs, func(i, j int) bool {
		oi, oj := parts[m.colGIDs[i]], parts[m.colGIDs[j]]
		if oi != oj {
			return oi < oj
		}
		return m.colGIDs[i] < m.colGIDs[j]
	})
	for i, v := range m.colGIDs {
		colSet[v] = int32(i)
	}
	m.colIdx = make([]int32, len(mine))
	for i, e := range mine {
		m.colIdx[i] = colSet[e.v]
	}
	m.xbuf = make([]float64, len(m.colGIDs))
	m.partial = make([]float64, len(m.rowGIDs))

	// Expand schedule. Sender side: for each owned vector entry v, the
	// set of ranks holding nonzeros with column v — enumerated via the
	// symmetric adjacency.
	sendSets := make([]map[int64]struct{}, p)
	for d := range sendSets {
		sendSets[d] = make(map[int64]struct{})
	}
	for _, v := range m.vecGIDs {
		for _, u := range g.Neighbors(v) { // arc (u, v): row u, col v
			dst := nzRank(layout, parts, pr, pc, u, v)
			sendSets[dst][v] = struct{}{}
		}
	}
	m.expandSend = make([][]int, p)
	for d := 0; d < p; d++ {
		gids := make([]int64, 0, len(sendSets[d]))
		for v := range sendSets[d] {
			gids = append(gids, v)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
		idxs := make([]int, len(gids))
		for i, v := range gids {
			idxs[i] = m.vecIdx[v]
		}
		m.expandSend[d] = idxs
	}

	// Fold schedule: my present rows grouped by the row's vector owner;
	// symmetric receive from ranks holding nonzeros in my rows.
	m.foldSend = make([][]int, p)
	for ri, u := range m.rowGIDs {
		m.foldSend[parts[u]] = append(m.foldSend[parts[u]], ri)
	}
	// Receive side: for each owned vector entry u, the ranks holding
	// row-u nonzeros, each sending one partial per iteration, ordered
	// by gid within each src (matching sender's rowGIDs order).
	recvSets := make([]map[int64]struct{}, p)
	for s := range recvSets {
		recvSets[s] = make(map[int64]struct{})
	}
	for _, u := range m.vecGIDs {
		for _, v := range g.Neighbors(u) { // arc (u, v) lives at nzRank
			src := nzRank(layout, parts, pr, pc, u, v)
			recvSets[src][u] = struct{}{}
		}
	}
	m.foldRecv = make([][]int, p)
	for s := 0; s < p; s++ {
		gids := make([]int64, 0, len(recvSets[s]))
		for u := range recvSets[s] {
			gids = append(gids, u)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
		idxs := make([]int, len(gids))
		for i, u := range gids {
			idxs[i] = m.vecIdx[u]
		}
		m.foldRecv[s] = idxs
	}

	// colGIDs is sorted (owner rank, gid), so per-source xbuf segments
	// are contiguous; colOff is their prefix index.
	m.colOff = make([]int, p+1)
	for _, v := range m.colGIDs {
		m.colOff[parts[v]+1]++
	}
	for r := 0; r < p; r++ {
		m.colOff[r+1] += m.colOff[r]
	}
	for d := 0; d < p; d++ {
		if d != me && len(m.expandSend[d]) > 0 {
			m.expandOut = append(m.expandOut, d)
		}
		if d != me && m.colOff[d+1] > m.colOff[d] {
			m.expandIn = append(m.expandIn, d)
		}
		if d != me && len(m.foldSend[d]) > 0 {
			m.foldOut = append(m.foldOut, d)
		}
	}
	return m, nil
}

// multiply performs one distributed SpMV: y = A x, leaving y in m.y.
// It returns the number of values this rank sent.
func (m *matrix) multiply() int64 {
	if m.async {
		return m.multiplyAsync()
	}
	var volume int64

	// Expand: ship owned x entries to nonzero holders. Counts are
	// schedule-derived and fixed; buffers reuse their capacity.
	if m.expandCounts == nil {
		m.expandCounts = make([]int, m.p)
		m.foldCounts = make([]int, m.p)
		for d := 0; d < m.p; d++ {
			m.expandCounts[d] = len(m.expandSend[d])
			m.foldCounts[d] = len(m.foldSend[d])
		}
	}
	total := 0
	sendBuf := m.expandBuf[:0]
	for d := 0; d < m.p; d++ {
		total += m.expandCounts[d]
		for _, xi := range m.expandSend[d] {
			sendBuf = append(sendBuf, m.x[xi])
		}
	}
	m.expandBuf = sendBuf
	volume += int64(total)
	recv, _ := mpi.Alltoallv(m.c, sendBuf, m.expandCounts)
	copy(m.xbuf, recv) // src-major, gid-sorted: matches colGIDs order

	m.localMultiply()

	// Fold: ship partial row sums to vector owners and accumulate.
	ftotal := 0
	fbuf := m.foldBuf[:0]
	for d := 0; d < m.p; d++ {
		ftotal += m.foldCounts[d]
		for _, ri := range m.foldSend[d] {
			fbuf = append(fbuf, m.partial[ri])
		}
	}
	m.foldBuf = fbuf
	volume += int64(ftotal)
	frecv, _ := mpi.Alltoallv(m.c, fbuf, m.foldCounts)
	for i := range m.y {
		m.y[i] = 0
	}
	pos := 0
	for s := 0; s < m.p; s++ {
		n := len(m.foldRecv[s])
		m.foldDstIdx, m.foldSeg = m.foldRecv[s], frecv[pos:pos+n]
		par.ForChunk(0, n, m.threads, m.foldBody)
		pos += n
	}
	return volume
}

// localMultiply computes the partial row sums from the filled x
// buffer — the compute kernel both engines share, so the cross-engine
// bit-identical-checksum guarantee cannot drift. Rows fan out across
// the rank's worker threads; each row's inner sum stays a serial
// ascending accumulation and each row writes its own partial slot, so
// the partials are bit-identical at every thread count.
//
//repro:hotpath
//repro:timing
func (m *matrix) localMultiply() {
	start := time.Now()
	par.ForChunk(0, len(m.rowGIDs), m.threads, m.mulBody)
	m.mulTime += time.Since(start)
}

// mulChunk is localMultiply's per-thread body: the CSR row loop over
// one contiguous row chunk.
//
//repro:hotpath
func (m *matrix) mulChunk(lo, hi, _ int) {
	for ri := lo; ri < hi; ri++ {
		var sum float64
		for e := m.rowPtr[ri]; e < m.rowPtr[ri+1]; e++ {
			sum += m.xbuf[m.colIdx[e]]
		}
		m.partial[ri] = sum
	}
}

// foldAddChunk accumulates one source's received fold segment:
// y[foldDstIdx[j]] += foldSeg[j]. Within a source the destination
// indices are distinct, so the adds are disjoint; sources are folded
// serially in ascending rank order by the callers, which is what keeps
// each y element's float accumulation order fixed.
//
//repro:hotpath
func (m *matrix) foldAddChunk(lo, hi, _ int) {
	dst, seg := m.foldDstIdx, m.foldSeg
	for j := lo; j < hi; j++ {
		m.y[dst[j]] += seg[j]
	}
}

// foldSelfChunk is foldAddChunk for the self share: partials indexed
// through the send schedule instead of a received segment.
//
//repro:hotpath
func (m *matrix) foldSelfChunk(lo, hi, _ int) {
	send, recv := m.foldSend[m.me], m.foldRecv[m.me]
	for j := lo; j < hi; j++ {
		m.y[recv[j]] += m.partial[send[j]]
	}
}

// divChunk performs the piggyback's deferred normalization in place
// on xbuf: xbuf[j] /= divNorm, disjoint per index.
//
//repro:hotpath
func (m *matrix) divChunk(lo, hi, _ int) {
	buf, norm := m.xbuf, m.divNorm
	for j := lo; j < hi; j++ {
		buf[j] = buf[j] / norm
	}
}

// decodeWords fills dst with the float64 values of the message words
// (len(dst) == len(words)).
//
//repro:hotpath
func decodeWords(dst []float64, words []int64) {
	for i, w := range words {
		dst[i] = math.Float64frombits(uint64(w))
	}
}

// multiplyAsync is multiply on point-to-point messages: the expand and
// fold phases each send one message per scheduled remote peer and copy
// the self share locally. Values travel as their math.Float64bits
// words on the pooled int64 path, so decoding is exact and every
// received buffer goes back to the pool as soon as it is decoded. Fill
// and accumulation orders match the synchronous engine exactly (xbuf
// segments are source-major, y adds run in ascending source rank with
// the self share at its rank position), so the iterated vector — and
// Result.Checksum — is bit-identical across engines.
//
// Under the ∞-norm piggyback the vector entries travel unnormalized
// with the sender's local norm contribution appended as one more word.
// The receiver folds the global max over its own and every peer's
// contribution (exact in any order — max never rounds — so it equals
// the AllreduceScalar it replaces bit for bit) and divides xbuf in
// place once the fold is total. The quotients are the same IEEE
// divisions the synchronous engine performs owner-side before
// shipping, so the numerics cannot drift.
//
//repro:hotpath
func (m *matrix) multiplyAsync() int64 {
	var volume int64
	me := m.c.Rank()

	// Expand: remote sends first (Isend64 is eager and never blocks),
	// then the local copy, then the receives. Isend64 copies at call
	// time, so one staging buffer serves every peer.
	for _, d := range m.expandOut {
		buf := m.peerBuf[:0]
		for _, xi := range m.expandSend[d] {
			buf = append(buf, int64(math.Float64bits(m.x[xi])))
		}
		if m.normPiggyback {
			buf = append(buf, int64(math.Float64bits(m.pendNorm)))
		}
		m.peerBuf = buf
		mpi.Isend64(m.c, d, buf)
		volume += int64(len(m.expandSend[d]))
	}
	for i, xi := range m.expandSend[me] {
		m.xbuf[m.colOff[me]+i] = m.x[xi]
	}
	norm := m.pendNorm
	for _, s := range m.expandIn {
		words := mpi.Recv64(m.c, s)
		seg := m.xbuf[m.colOff[s]:m.colOff[s+1]]
		decodeWords(seg, words[:len(seg)])
		if m.normPiggyback {
			if n := math.Float64frombits(uint64(words[len(seg)])); n > norm {
				norm = n
			}
		}
		m.c.Recycle64(words)
	}
	if m.normPiggyback {
		if norm == 0 {
			norm = 1 // the synchronous engine's zero-norm guard
		}
		m.divNorm = norm
		par.ForChunk(0, len(m.xbuf), m.threads, m.divBody)
	}

	m.localMultiply()

	// Fold: ship partial row sums to remote vector owners; under a 1D
	// layout every row is owner-local and this loop sends nothing.
	for _, d := range m.foldOut {
		buf := m.peerBuf[:0]
		for _, ri := range m.foldSend[d] {
			buf = append(buf, int64(math.Float64bits(m.partial[ri])))
		}
		m.peerBuf = buf
		mpi.Isend64(m.c, d, buf)
		volume += int64(len(buf))
	}
	for i := range m.y {
		m.y[i] = 0
	}
	for s := 0; s < m.p; s++ {
		if s == me {
			par.ForChunk(0, len(m.foldSend[me]), m.threads, m.selfBody)
			continue
		}
		n := len(m.foldRecv[s])
		if n == 0 {
			continue
		}
		if cap(m.foldDec) < n {
			m.foldDec = make([]float64, n)
		}
		words := mpi.Recv64(m.c, s)
		seg := m.foldDec[:n]
		decodeWords(seg, words)
		m.c.Recycle64(words)
		m.foldDstIdx, m.foldSeg = m.foldRecv[s], seg
		par.ForChunk(0, n, m.threads, m.foldBody)
	}
	return volume
}

// Run executes opt.Iterations chained multiplies (x ← A x / ‖A x‖∞)
// and reports timing, traffic, and a layout-independent checksum.
//
//repro:deterministic
//repro:timing
func Run(c *mpi.Comm, g *graph.Graph, parts []int32, opt Options) (Result, error) {
	if opt.Iterations <= 0 {
		opt.Iterations = 100
	}
	m, err := build(c, g, parts, opt.Layout)
	if err != nil {
		return Result{}, err
	}
	m.async = opt.Async
	redBase := c.Stats().ReductionOps
	if opt.Async {
		// One-time collective detection: the norm piggyback needs every
		// rank to hear every other rank's contribution on each expand,
		// i.e. a complete expand rank neighborhood on EVERY rank.
		m.normPiggyback = mpi.NeighborhoodComplete(c, len(m.expandIn))
		m.pendNorm = 1
	}
	var res Result
	start := time.Now()
	for it := 0; it < opt.Iterations; it++ {
		res.CommVolume += m.multiply()
		// Normalize by the global ∞-norm to keep the iteration bounded
		// (power iteration on the adjacency matrix). Max is order-
		// independent, so the parallel reduction is exact.
		local := par.MaxFloat64(0, len(m.y), m.threads, 0,
			func(i int) float64 { return math.Abs(m.y[i]) })
		if m.normPiggyback {
			// Deferred: keep y unnormalized and remember the local norm
			// contribution — the next expand ships it and divides on
			// receive; no reduction this iteration.
			m.pendNorm = local
			copy(m.x, m.y)
			continue
		}
		norm := mpi.AllreduceScalar(c, local, mpi.Max)
		if norm == 0 {
			norm = 1
		}
		par.For(0, len(m.y), m.threads, func(i int) { m.x[i] = m.y[i] / norm })
	}
	if m.normPiggyback && opt.Iterations > 0 {
		// Settle the last iteration's deferred normalization: the one
		// reduction the piggyback leaves, independent of the iteration
		// count.
		norm := mpi.AllreduceScalar(c, m.pendNorm, mpi.Max)
		if norm == 0 {
			norm = 1
		}
		par.For(0, len(m.x), m.threads, func(i int) { m.x[i] = m.x[i] / norm })
	}
	res.Time = time.Since(start)
	local := par.MaxFloat64(0, len(m.x), m.threads, 0,
		func(i int) float64 { return math.Abs(m.x[i]) })
	res.Checksum = mpi.AllreduceScalar(c, local, mpi.Max)
	res.Reductions = c.Stats().ReductionOps - redBase
	res.NormPiggyback = m.normPiggyback
	res.MultiplyTime = m.mulTime
	return res, nil
}
