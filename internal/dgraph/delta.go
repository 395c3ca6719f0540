package dgraph

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/mpi"
)

// The delta engine of the Exchanger interface. Where the bulk engine
// (bulk.go) re-derives each update's destinations from the adjacency
// and ships (gid, value) as two 64-bit elements through a world-wide
// Alltoallv, this file precomputes the boundary structure once per
// graph — for every neighbour rank, the gid-sorted list of vertices
// shared with it — so updates name their vertex by an index into the
// shared list instead of by global id and travel over nonblocking
// point-to-point messages. The three round kinds of the interface ride
// the same plan, all split-phase (post, overlap compute, settle):
//
//   - Update rounds (BeginTally/FlushTally): 32-bit part labels packed
//     one element per update, with the receive side drained on a
//     background goroutine while the rank's worker threads are still
//     propagating labels.
//   - Value rounds (BeginValues/FlushValues/FlushCount): full 64-bit
//     payloads owner → ghost. Begin posts the sends and the drainer;
//     the caller computes interior work while messages are in flight
//     and settles ghosts at Flush.
//   - Push rounds (BeginPush/FlushPush): full 64-bit payloads ghost →
//     owner, for frontier algorithms.
//
// Tallies are settled here too. On a complete rank neighbourhood they
// ride the messages as tally frames (mpi.AppendTally), kept per source
// (TallyRound) so float partial sums fold in global rank order —
// bit-identical to the Allreduce they replace — and a counted round's
// convergence counter rides the NEXT counted round's messages (one
// round of lag, reported by TallyRound.Lag). On an incomplete
// neighbourhood the frames would miss non-neighbour ranks, so Flush
// reduces the tally or counter by one exact Allreduce instead.
//
// Every round runs on a persistent per-exchanger drainer goroutine and
// reusable encode/decode arenas, with transfer copies drawn from the
// mpi world's buffer pool (Isend64/Recv64/Recycle64): a steady-state
// round on a complete neighbourhood performs zero heap allocations on
// either side.
//
// Rounds are pipelined to a construction-time depth k (Graph's
// SetPipeDepth knob, default DefaultPipeDepth): further Begin* calls
// may be posted while up to k-1 earlier rounds are still unflushed, so
// k rounds of messages are in flight at once and a flush settles the
// OLDEST pending round. Each round carries a monotone sequence number
// — composed with an optional caller-set wave id (SetRoundWave) into
// an mpi round tag, asserted on receive so skewed pipelines fail
// loudly — and the drainer cycles its decode arenas modulo the depth,
// which is what stretches the aliasing contract from "valid until the
// next round is posted" to "valid for depth-1 subsequent rounds".

// ghostTarget records one destination of an owned boundary vertex:
// which neighbor (by position in the plan's sendRanks) ghosts it and
// at which index it sits in the pair's shared gid-sorted list.
type ghostTarget struct {
	rankPos int32
	idx     int32
}

// boundaryPlan is the precomputed per-neighbor boundary structure of
// one rank. Both sides of every rank pair derive the same shared
// vertex list independently (sorted by gid), which is what lets an
// update name its vertex by list index instead of by global id.
type boundaryPlan struct {
	// sendRanks are the neighbor ranks that ghost at least one owned
	// vertex, ascending.
	sendRanks []int32
	// sendLists[i] holds the owned lids shared with sendRanks[i] in
	// increasing gid order.
	sendLists [][]int32
	// targets[v] lists, for owned vertex v, every (neighbor, index)
	// slot it occupies; nil for interior vertices.
	targets [][]ghostTarget
	// recvRanks are the neighbor ranks owning at least one ghost,
	// ascending (equal to sendRanks by symmetry of the undirected
	// graph, but derived independently from the ghost set).
	recvRanks []int32
	// recvLists[i] holds the ghost lids owned by recvRanks[i] in
	// increasing gid order — index-compatible with the owner's
	// sendLists entry for this rank.
	recvLists [][]int32
	// ghostRankPos[i] and ghostIdx[i] locate ghost NLocal+i in the
	// receive-side structure: its owner's position in recvRanks and its
	// index in that pair's shared list. They are the reverse-flow
	// (ghost → owner) counterpart of targets.
	ghostRankPos []int32
	ghostIdx     []int32
}

// newBoundaryPlan derives the plan from purely local structure; no
// communication happens. Correctness rests on a symmetry of the CSR
// build: owned vertex v is ghosted on rank r exactly when v has a
// neighbor owned by r, so both endpoints of a rank pair can enumerate
// the same shared set and sort it by gid.
func newBoundaryPlan(g *Graph) *boundaryPlan {
	nprocs := g.Comm.Size()
	p := &boundaryPlan{targets: make([][]ghostTarget, g.NLocal)}

	// Send side: owned vertices in lid order are already gid-sorted.
	seen := make([]int32, nprocs) // last owned lid appended per rank, +1
	perRank := make([][]int32, nprocs)
	for v := 0; v < g.NLocal; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if !g.IsGhost(u) {
				continue
			}
			r := g.GhostOwner[int(u)-g.NLocal]
			if seen[r] == int32(v)+1 {
				continue
			}
			seen[r] = int32(v) + 1
			perRank[r] = append(perRank[r], int32(v))
		}
	}
	for r := 0; r < nprocs; r++ {
		if len(perRank[r]) == 0 {
			continue
		}
		pos := int32(len(p.sendRanks))
		p.sendRanks = append(p.sendRanks, int32(r))
		p.sendLists = append(p.sendLists, perRank[r])
		for idx, lid := range perRank[r] {
			p.targets[lid] = append(p.targets[lid], ghostTarget{rankPos: pos, idx: int32(idx)})
		}
	}

	// Receive side: ghosts grouped by owner, then gid-sorted to match
	// the owner's enumeration order.
	ghostsByOwner := make([][]int32, nprocs)
	for i := 0; i < g.NGhost; i++ {
		r := g.GhostOwner[i]
		ghostsByOwner[r] = append(ghostsByOwner[r], int32(g.NLocal+i))
	}
	p.ghostRankPos = make([]int32, g.NGhost)
	p.ghostIdx = make([]int32, g.NGhost)
	for r := 0; r < nprocs; r++ {
		lids := ghostsByOwner[r]
		if len(lids) == 0 {
			continue
		}
		sort.Slice(lids, func(a, b int) bool { return g.L2G[lids[a]] < g.L2G[lids[b]] })
		pos := int32(len(p.recvRanks))
		p.recvRanks = append(p.recvRanks, int32(r))
		p.recvLists = append(p.recvLists, lids)
		for idx, lid := range lids {
			p.ghostRankPos[int(lid)-g.NLocal] = pos
			p.ghostIdx[int(lid)-g.NLocal] = int32(idx)
		}
	}
	return p
}

// packUpdate encodes (index in shared list, part value) as one int64 —
// half the wire volume of the synchronous (gid, value) encoding.
func packUpdate(idx int32, value int32) int64 {
	return int64(uint64(uint32(idx))<<32 | uint64(uint32(value)))
}

// unpackUpdate reverses packUpdate.
func unpackUpdate(w int64) (idx int32, value int32) {
	return int32(uint32(uint64(w) >> 32)), int32(uint32(uint64(w)))
}

// roundKind discriminates the three split-phase round types.
type roundKind int8

// Round kinds.
const (
	roundNone roundKind = iota
	roundUpdates
	roundValuesFwd
	roundValuesRev
)

// DefaultPipeDepth is the default pipeline depth: how many rounds may
// be in flight per exchanger at once when the graph does not select a
// deeper pipeline with SetPipeDepth. At the default, a Begin* may be
// posted while at most one earlier round is still unflushed. The
// drainer cycles its decode arenas modulo the configured depth.
const DefaultPipeDepth = 2

// MinPipeDepth is the smallest accepted pipeline depth. Depth 1 would
// forbid posting a round behind a pending one — the split-phase BFS
// schedule (push posted behind the previous refresh) needs two — so
// shallower knob values are rejected at SetPipeDepth.
const MinPipeDepth = 2

// DeltaExchanger is the delta engine of the Exchanger interface:
// rounds of delta-only boundary exchange over nonblocking
// point-to-point messages. An update round, collectively on every rank
// of the graph's communicator:
//
//	ex.BeginTally(n)                // post receives, then compute locally
//	in, tr := ex.FlushTally(q, t)   // ship deltas, collect incoming
//
// BeginTally tells the exchanger's background drainer to receive and
// decode each neighbour's message while the caller is still computing;
// FlushTally sends this rank's queued updates (one message per boundary
// neighbour, empty when nothing changed) and then joins the drainer.
//
// Value and push rounds post their sends at Begin, so the caller can
// compute interior work while the messages are in flight; Flush joins
// and returns the incoming pairs.
//
// Rounds pipeline to the graph's configured depth (SetPipeDepth,
// default DefaultPipeDepth): after BeginValues (or BeginPush), further
// Begin* calls of any kind may be posted before the first round's
// Flush, keeping up to depth rounds of messages in flight; each Flush
// settles the oldest pending round, in FIFO order. The overlapped BFS
// uses this to keep depth d's ghost-refresh round and depth d+1's
// discovery push in flight simultaneously, and the multi-wave HC
// engine interleaves depth/2 independent BFS waves' rounds — stamped
// with per-wave round tags via SetRoundWave — on the same pipeline.
//
// Every rank must call the same sequence of rounds or peers deadlock,
// exactly as they would skipping a collective. Calling FlushTally
// without BeginTally is allowed (the receive side is posted on entry,
// losing only overlap). Slices returned by a round alias per-exchanger
// arenas, cycled modulo the depth: they stay valid for depth-1
// subsequent rounds (depth-1 Begin* calls after the Flush that
// returned them).
//
// Construction (NewDeltaExchanger, Graph.AsyncExchanger) is collective:
// it performs the one-time rank-neighbourhood completeness Allreduce so
// NeighborhoodComplete is a pure cached read afterwards. An exchanger
// owns one background goroutine; Close releases it (graph teardown
// calls it via Graph.Close, and a finalizer backstops leaks).
type DeltaExchanger struct {
	g    *Graph
	plan *boundaryPlan

	// The persistent background drainer: one goroutine per exchanger,
	// started on first use and shut down by Close (with a finalizer as
	// backstop for exchangers that are collected without one). Posting
	// a round costs a channel send instead of a goroutine spawn, and
	// the drainer's decode arenas persist across rounds — both
	// load-bearing for the zero-allocation steady state.
	reqCh  chan drainReq
	resCh  chan drainResult
	doneCh chan struct{}

	// depth is the construction-time pipeline depth (Graph.PipeDepth):
	// how many rounds may be in flight at once.
	depth int
	// pend is the FIFO of posted-but-unflushed rounds (at most depth);
	// seq numbers rounds monotonically and — composed with the current
	// wave id — stamps their messages as mpi round tags.
	pend  []pendingRound
	npend int
	seq   uint32
	// wave is the 8-bit wave id stamped into subsequently posted
	// rounds' tags (SetRoundWave); 0 for single-stream callers.
	wave int

	// sendBufs are reusable per-neighbor encode buffers (update flow).
	sendBufs [][]int64
	// fwdIdx/fwdVal/fwdEnc are the owner→ghost value-flow arenas, one
	// per send neighbor; revIdx/revVal/revEnc the ghost→owner
	// counterparts, one per receive neighbor. They are consumed by the
	// time Begin* returns (mpi sends copy eagerly), so pipelined rounds
	// share them.
	fwdIdx [][]int32
	fwdVal [][]int64
	fwdEnc [][]int64
	revIdx [][]int32
	revVal [][]int64
	revEnc [][]int64

	// complete caches the construction-time completeness detection:
	// 1 yes, 2 no (0 only during construction itself).
	complete int8

	// carry is the frame of the pending counted round on a complete
	// neighbourhood: the counter handed to the previous FlushCount
	// (lastCount), then the optional carried maximum.
	carry     [2]int64
	lastCount int64
	// fscratch holds a float tally's values for its fallback Allreduce.
	fscratch []float64

	// MaxDepth is the high-water mark of simultaneously pending rounds
	// (2 once a caller pipelines), a diagnostic for tests.
	MaxDepth int
}

// pendingRound is one posted-but-unflushed round: its kind, the tally
// the caller declared and the frame its messages actually carry (the
// wire frame is empty when Flush reduces the tally by Allreduce), its
// sequence number (which selects the drainer arena), and the composed
// (wave, seq) tag its messages carry.
type pendingRound struct {
	kind     roundKind
	tally    Tally
	tallyLen int
	wire     []int64
	seq      uint32
	tag      uint32
}

// drainReq tells the drainer what the next round receives: which
// direction's messages, how long their tally frames are, the sequence
// number selecting the decode arena, and the round tag to assert on
// every frame.
type drainReq struct {
	kind     roundKind
	tallyLen int
	seq      uint32
	tag      uint32
}

// drainResult is what the background drainer hands back at Flush: the
// decoded updates and summed tallies (update rounds) or decoded pairs
// and per-source tally frames (value rounds), or the panic it
// recovered. Panics must travel back to the rank's main goroutine —
// re-raised from Flush — so mpi.Run's per-rank recovery sees them; a
// panic escaping on the drainer goroutine itself would kill the whole
// process. All slices alias the arena of the round's parity.
type drainResult struct {
	updates  []Update
	tally    []int64
	outL     []int32
	outP     []int64
	tallies  []int64
	panicked any
}

// drainArena is one round slot's set of decode buffers. The drainer
// owns depth of them and serves round seq from arena seq%depth, so a
// pipelined caller can still read round r's result while the drainer
// decodes rounds r+1 … r+depth-1 into the other arenas.
type drainArena struct {
	updates []Update
	tally   []int64
	outL    []int32
	outP    []int64
	tallies []int64
}

// drainer is the background half of one exchanger. It deliberately
// holds no reference back to the DeltaExchanger, so the exchanger can
// be collected (its finalizer closes req, ending the goroutine).
type drainer struct {
	comm   *mpi.Comm
	plan   *boundaryPlan
	req    chan drainReq
	res    chan drainResult
	done   chan struct{}
	arenas []drainArena
}

// NewDeltaExchanger builds the boundary plan for g and performs the
// one-time rank-neighborhood completeness detection. The plan build is
// local, but the detection is an Allreduce, so construction is
// COLLECTIVE: every rank of the graph's communicator must construct
// together (Graph.AsyncExchanger call sites do — the partitioner, the
// analytics engines, and SetAsyncExchange all construct on every rank
// at the same point). Moving the Allreduce here is what makes
// NeighborhoodComplete safe to call from conditional code: it is a
// cached read, never a hidden collective that could deadlock ranks
// disagreeing about whether to ask.
func (g *Graph) NewDeltaExchanger() *DeltaExchanger {
	plan := newBoundaryPlan(g)
	ex := &DeltaExchanger{
		g:        g,
		plan:     plan,
		depth:    g.PipeDepth(),
		sendBufs: make([][]int64, len(plan.sendRanks)),
		fwdIdx:   make([][]int32, len(plan.sendRanks)),
		fwdVal:   make([][]int64, len(plan.sendRanks)),
		fwdEnc:   make([][]int64, len(plan.sendRanks)),
		revIdx:   make([][]int32, len(plan.recvRanks)),
		revVal:   make([][]int64, len(plan.recvRanks)),
		revEnc:   make([][]int64, len(plan.recvRanks)),
	}
	ex.pend = make([]pendingRound, ex.depth)
	if mpi.NeighborhoodComplete(g.Comm, len(plan.sendRanks)) {
		ex.complete = 1
	} else {
		ex.complete = 2
	}
	return ex
}

// ensureDrainer lazily starts the exchanger's persistent drainer
// (again, if the exchanger was Closed and then reused).
func (ex *DeltaExchanger) ensureDrainer() {
	if ex.reqCh != nil {
		return
	}
	d := &drainer{
		comm:   ex.g.Comm,
		plan:   ex.plan,
		req:    make(chan drainReq, ex.depth),
		res:    make(chan drainResult, ex.depth),
		done:   make(chan struct{}),
		arenas: make([]drainArena, ex.depth),
	}
	ex.reqCh, ex.resCh, ex.doneCh = d.req, d.res, d.done
	go d.loop()
	runtime.SetFinalizer(ex, finalizeExchanger)
}

// Close settles any rounds still in flight (re-raising a drainer panic
// like the Flush that was never called would have) and stops the
// exchanger's background drainer goroutine, waiting until it has
// exited. Close is idempotent, and a closed exchanger may be reused —
// the next Begin* starts a fresh drainer. Graph.Close calls it during
// teardown; the finalizer remains only as a backstop for exchangers
// dropped without Close (finalizers are not guaranteed to run, so
// long-lived processes must not rely on it).
//
// Close belongs on the NORMAL teardown path, not in a defer that can
// run while a panic unwinds: settling a pending round blocks until the
// peers' messages arrive, and a rank that panicked out of the
// collective schedule would wait for sends that never come — before
// mpi.Run's recovery gets the chance to poison the world. After a
// panic, skip Close; poison unblocks the drainer and the finalizer
// reclaims it. Close must also not race a concurrent Begin*/Flush,
// and — like Flush — it must not be called with a pending update
// round whose FlushTally never ran, since peers are still waiting for
// that round's messages.
func (ex *DeltaExchanger) Close() {
	if ex.reqCh == nil {
		return
	}
	for ex.npend > 0 {
		ex.join()
	}
	runtime.SetFinalizer(ex, nil)
	close(ex.reqCh)
	<-ex.doneCh
	ex.reqCh, ex.resCh, ex.doneCh = nil, nil, nil
}

// InFlight reports the number of posted-but-unflushed rounds.
func (ex *DeltaExchanger) InFlight() int { return ex.npend }

// finalizeExchanger releases the drainer goroutine of a collected
// exchanger that was never Closed (best effort: a finalizer may never
// run — explicit Close is the supported path).
func finalizeExchanger(ex *DeltaExchanger) {
	if ex.reqCh != nil {
		close(ex.reqCh)
	}
}

// loop serves drain requests until the request channel closes. Each
// iteration recovers panics (mailbox poison after a sibling rank's
// crash, malformed frames) into the result so the main goroutine
// re-raises them.
func (d *drainer) loop() {
	defer close(d.done)
	for req := range d.req {
		a := &d.arenas[int(req.seq)%len(d.arenas)]
		var res drainResult
		func() {
			defer func() {
				if p := recover(); p != nil {
					res.panicked = p
				}
			}()
			if req.kind == roundUpdates {
				res = d.drainUpdates(a, req)
			} else {
				res = d.drainValues(a, req)
			}
		}()
		d.res <- res
	}
}

// resizeZero returns buf with length n and all elements zero, reusing
// its capacity when possible.
func resizeZero(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// drainUpdates receives one update-flow message from every boundary
// neighbor, decoding packed updates into arena a and summing tally
// frames.
func (d *drainer) drainUpdates(a *drainArena, req drainReq) drainResult {
	a.updates = a.updates[:0]
	a.tally = resizeZero(a.tally, req.tallyLen)
	for i, src := range d.plan.recvRanks {
		lids := d.plan.recvLists[i]
		msg := mpi.Recv64Tag(d.comm, int(src), req.tag)
		for _, w := range mpi.SplitTally(msg, a.tally) {
			idx, value := unpackUpdate(w)
			if int(idx) >= len(lids) {
				panic(fmt.Sprintf("dgraph: rank %d: delta index %d outside shared list of %d with rank %d",
					d.comm.Rank(), idx, len(lids), src))
			}
			a.updates = append(a.updates, Update{LID: lids[idx], Value: value})
		}
		d.comm.Recycle64(msg)
	}
	return drainResult{updates: a.updates, tally: a.tally}
}

// drainValues receives one value-flow message from every neighbor of
// the round's direction, decoding (lid, payload) pairs into arena a
// and capturing each source's tally frame separately (value tallies
// are folded caller-side so float partial sums can keep global rank
// order).
func (d *drainer) drainValues(a *drainArena, req drainReq) drainResult {
	srcs, lists := d.plan.recvRanks, d.plan.recvLists
	if req.kind == roundValuesRev {
		srcs, lists = d.plan.sendRanks, d.plan.sendLists
	}
	a.outL = a.outL[:0]
	a.outP = a.outP[:0]
	a.tallies = resizeZero(a.tallies, len(srcs)*req.tallyLen)
	for i, src := range srcs {
		msg := mpi.Recv64Tag(d.comm, int(src), req.tag)
		body := msg
		if req.tallyLen > 0 {
			body = mpi.SplitTally(msg, a.tallies[i*req.tallyLen:(i+1)*req.tallyLen])
		}
		a.outL, a.outP = decodeValues(int(src), body, lists[i], a.outL, a.outP)
		d.comm.Recycle64(msg)
	}
	return drainResult{outL: a.outL, outP: a.outP, tallies: a.tallies}
}

// NeighborRanks returns the ranks this exchanger sends to (the ranks
// ghosting at least one owned vertex), ascending.
func (ex *DeltaExchanger) NeighborRanks() []int32 {
	out := make([]int32, len(ex.plan.sendRanks))
	copy(out, ex.plan.sendRanks)
	return out
}

// SharedSendGIDs returns the gid-sorted list of owned vertices the
// given neighbor rank ghosts — this rank's view of the directed pair
// (this → rank). It must equal the neighbor's SharedRecvGIDs for this
// rank element-for-element; tests assert that symmetry.
func (ex *DeltaExchanger) SharedSendGIDs(rank int) []int64 {
	for i, r := range ex.plan.sendRanks {
		if int(r) == rank {
			return ex.gidsOf(ex.plan.sendLists[i])
		}
	}
	return nil
}

// SharedRecvGIDs returns the gid-sorted list of ghosts the given
// neighbor rank owns — this rank's view of the directed pair
// (rank → this).
func (ex *DeltaExchanger) SharedRecvGIDs(rank int) []int64 {
	for i, r := range ex.plan.recvRanks {
		if int(r) == rank {
			return ex.gidsOf(ex.plan.recvLists[i])
		}
	}
	return nil
}

func (ex *DeltaExchanger) gidsOf(lids []int32) []int64 {
	out := make([]int64, len(lids))
	for j, lid := range lids {
		out[j] = ex.g.L2G[lid]
	}
	return out
}

// Begin posts the receive side of the next tally-free round; it is
// BeginTally(0). Begin must be followed by exactly one Flush.
func (ex *DeltaExchanger) Begin() { ex.BeginTally(0) }

// post appends round pr to the pending FIFO and hands its receive side
// to the drainer, whose messages carry wireLen tally elements; it
// returns the round's message tag (the current wave id composed with
// the round's sequence number). It panics when depth rounds are
// already in flight, and when a value/push round would be posted
// behind a pending update round: value-flow sends are eager (Begin)
// while update-flow sends are deferred (Flush), so that combination
// would put the value frames ahead of the update frames in the pair
// FIFOs and skew every receiver. The converse — an update round posted
// behind a value round — is fine, because flushes run oldest-first and
// the update's deferred sends happen after the value round has fully
// settled.
//
//repro:hotpath
func (ex *DeltaExchanger) post(pr pendingRound, wireLen int) uint32 {
	if ex.npend == ex.depth {
		panic(fmt.Sprintf("dgraph: DeltaExchanger round posted with %d rounds already in flight (pipe depth %d)", ex.npend, ex.depth))
	}
	if pr.kind != roundUpdates {
		for i := 0; i < ex.npend; i++ {
			if ex.pend[i].kind == roundUpdates {
				panic("dgraph: value round posted behind a pending update round (update sends are deferred to Flush; flush it first)")
			}
		}
	}
	//lint:ignore hotpathalloc ensureDrainer allocates only on its first call after construction or Close; steady-state rounds return at its nil check
	ex.ensureDrainer()
	pr.seq = ex.seq
	ex.seq++
	pr.tag = mpi.RoundTag(ex.wave, pr.seq)
	ex.pend[ex.npend] = pr
	ex.npend++
	if ex.npend > ex.MaxDepth {
		ex.MaxDepth = ex.npend
	}
	ex.reqCh <- drainReq{kind: pr.kind, tallyLen: wireLen, seq: pr.seq, tag: pr.tag}
	return pr.tag
}

// Depth returns the exchanger's construction-time pipeline depth.
func (ex *DeltaExchanger) Depth() int { return ex.depth }

// SetRoundWave selects the wave id stamped into the round tags of
// subsequently posted rounds (0, the initial value, for single-stream
// callers). Multi-wave schedules — the HC engine runs one BFS per wave
// slot over the shared pipeline — set it before each wave's Begin*
// calls, so a skewed schedule panics naming the wave AND the round.
// Like the round sequence itself it must be set identically on every
// rank; it never affects message matching.
func (ex *DeltaExchanger) SetRoundWave(w int) {
	checkWave(w)
	ex.wave = w
}

// BeginTally posts the receive side of the next update round: the
// exchanger's background drainer takes one message from each boundary
// neighbor as it arrives, decoding into ghost-lid updates while the
// caller's compute is still in flight. tallyLen declares the length of
// the tally the matching FlushTally passes (0 for none); on a complete
// neighbourhood it rides every message as a frame. Every BeginTally
// must eventually be matched by exactly one Flush/FlushTally; flushes
// settle rounds oldest-first.
func (ex *DeltaExchanger) BeginTally(tallyLen int) {
	wireLen := 0
	if ex.NeighborhoodComplete() {
		wireLen = tallyLen
	}
	ex.post(pendingRound{kind: roundUpdates, tallyLen: tallyLen}, wireLen)
}

// join collects the oldest pending round's result from the drainer
// (results arrive in round order), pops it from the FIFO, and
// re-raises any panic the drainer recovered.
//
//repro:hotpath
func (ex *DeltaExchanger) join() drainResult {
	res := <-ex.resCh
	copy(ex.pend[:], ex.pend[1:ex.npend])
	ex.pend[ex.npend-1] = pendingRound{}
	ex.npend--
	if res.panicked != nil {
		panic(res.panicked)
	}
	return res
}

// Flush is FlushTally without a tally.
func (ex *DeltaExchanger) Flush(q []Update) []Update {
	out, _ := ex.FlushTally(q, nil)
	return out
}

// FlushTally encodes the round's owned-vertex updates, sends one
// message to every boundary neighbor — tagged with the oldest pending
// update round's sequence number, and carrying the rank's tally frame
// on a complete neighbourhood — joins that round's drain (posting the
// round now if the caller skipped Begin), and returns the updates
// received for this rank's ghosts together with the round's global
// tally sums: this rank's tally plus the neighbours' frames, or one
// Allreduce on an incomplete neighbourhood. len(tally) must equal the
// round's declared tallyLen on every rank — the tally is part of the
// message framing, so a mismatch corrupts decoding on the peer. The
// returned slices alias exchanger arenas and are valid until the round
// after next is posted; tally must stay untouched while the TallyRound
// is read.
//
//repro:hotpath
func (ex *DeltaExchanger) FlushTally(q []Update, tally []int64) ([]Update, TallyRound) {
	if ex.npend == 0 {
		ex.BeginTally(len(tally))
	}
	oldest := ex.pend[0]
	if oldest.kind != roundUpdates {
		panic("dgraph: FlushTally while the oldest pending round is a value round")
	}
	if len(tally) != oldest.tallyLen {
		panic(fmt.Sprintf("dgraph: FlushTally with tally length %d, Begin posted %d", len(tally), oldest.tallyLen))
	}
	var wire []int64
	if ex.NeighborhoodComplete() {
		wire = tally
	}
	plan := ex.plan
	for i := range ex.sendBufs {
		ex.sendBufs[i] = ex.sendBufs[i][:0]
	}
	for _, upd := range q {
		if int(upd.LID) >= len(plan.targets) {
			panic(fmt.Sprintf("dgraph: DeltaExchanger.Flush with non-owned lid %d", upd.LID))
		}
		for _, t := range plan.targets[upd.LID] {
			ex.sendBufs[t.rankPos] = append(ex.sendBufs[t.rankPos], packUpdate(t.idx, upd.Value))
		}
	}
	for i, dst := range plan.sendRanks {
		ex.sendBufs[i] = mpi.AppendTally(ex.g.Comm, ex.sendBufs[i], wire)
		mpi.Isend64Tag(ex.g.Comm, int(dst), oldest.tag, ex.sendBufs[i])
	}
	res := ex.join()
	switch {
	case len(tally) == 0:
		return res.updates, TallyRound{}
	case wire == nil:
		return res.updates, reduceTally(ex.g.Comm, tally, false, &ex.fscratch)
	}
	return res.updates, TallyRound{own: tally, flat: res.tally, n: len(tally)}
}

// NeighborhoodComplete reports whether every rank of the communicator
// neighbors every other rank — the condition under which tallies
// piggybacked on boundary messages already sum over all ranks, making
// piggybacked reductions (part sizes, convergence counters, PageRank's
// dangling mass) exact without any Allreduce. The detection runs once,
// collectively, during construction (NewDeltaExchanger), so this is a
// pure cached read — safe to call from conditional, per-rank code
// without any collective-mismatch deadlock risk.
func (ex *DeltaExchanger) NeighborhoodComplete() bool {
	return ex.complete == 1
}

// Value-flow wire format (BeginValues and BeginPush). One message
// per neighbor pair per round, all-int64:
//
//	[]                          no pairs this round
//	[-1, v0, v1, ...]           dense: one payload per shared-list
//	                            entry, in list order
//	[k, i01, i23, ..., v0..vk)  sparse: k pairs; indices packed two
//	                            int32s per element, then k payloads
//
// Dense costs 1+n elements and sparse 1+⌈k/2⌉+k, against the
// bulk engine's 2k (gid, payload) pairs — a 50% / 25% element
// reduction. The dense form triggers exactly when a caller ships its
// full boundary in lid order, PageRank-style.
const denseHeader = -1

// encodeValues appends one value-flow message for a neighbor whose
// shared list has listLen entries onto dst (a reusable per-neighbor
// arena); idxs/vals hold this round's pairs in queue order.
func encodeValues(dst []int64, listLen int, idxs []int32, vals []int64) []int64 {
	k := len(idxs)
	if k == 0 {
		return dst
	}
	dense := k == listLen
	if dense {
		for j, idx := range idxs {
			if idx != int32(j) {
				dense = false
				break
			}
		}
	}
	if dense {
		dst = append(dst, denseHeader)
		return append(dst, vals...)
	}
	dst = append(dst, int64(k))
	for j := 0; j < k; j += 2 {
		hi, lo := idxs[j], int32(0)
		if j+1 < k {
			lo = idxs[j+1]
		}
		dst = append(dst, packUpdate(hi, lo))
	}
	return append(dst, vals...)
}

// decodeValues appends one value-flow message's (lid, payload) pairs —
// decoded against the pair's shared list — onto outL/outP.
func decodeValues(rank int, msg []int64, list []int32, outL []int32, outP []int64) ([]int32, []int64) {
	if len(msg) == 0 {
		return outL, outP
	}
	if msg[0] == denseHeader {
		vals := msg[1:]
		if len(vals) != len(list) {
			panic(fmt.Sprintf("dgraph: dense value message of %d payloads for shared list of %d", len(vals), len(list)))
		}
		return append(outL, list...), append(outP, vals...)
	}
	k := int(msg[0])
	np := (k + 1) / 2
	if k < 0 || 1+np+k != len(msg) {
		panic(fmt.Sprintf("dgraph: sparse value message header %d inconsistent with length %d", k, len(msg)))
	}
	vals := msg[1+np:]
	for j := 0; j < k; j++ {
		hi, lo := unpackUpdate(msg[1+j/2])
		idx := hi
		if j%2 == 1 {
			idx = lo
		}
		if int(idx) >= len(list) {
			panic(fmt.Sprintf("dgraph: value index %d outside shared list of %d with rank %d", idx, len(list), rank))
		}
		outL = append(outL, list[idx])
		outP = append(outP, vals[j])
	}
	return outL, outP
}

// valueFrame returns the tally frame a value or push round's messages
// carry: the declared Vals, or on a counted round the previous
// round's counter (1, "not converged", on round 1) and the optional
// maximum. It is empty on an incomplete neighbourhood, where Flush
// reduces the tally by Allreduce instead.
//
//repro:hotpath
func (ex *DeltaExchanger) valueFrame(t Tally) []int64 {
	if !ex.NeighborhoodComplete() {
		return nil
	}
	if t.Round <= 0 {
		return t.Vals
	}
	for i := 0; i < ex.npend; i++ {
		if ex.pend[i].tally.Round > 0 {
			panic("dgraph: counted round posted while another is in flight (its counter is handed over at that round's FlushCount)")
		}
	}
	ex.carry[0] = ex.lastCount
	if t.Round == 1 {
		ex.carry[0] = 1
	}
	if t.Max == nil {
		return ex.carry[:1]
	}
	ex.carry[1] = t.Max()
	return ex.carry[:2]
}

// settleValues joins the oldest pending round, which must be of the
// given kind and counted or not as the Flush variant says, and returns
// its received pairs plus its tally settled for srcs, the round's
// source ranks.
//
//repro:hotpath
func (ex *DeltaExchanger) settleValues(kind roundKind, counted bool, count int64) ([]int32, []int64, TallyRound) {
	if ex.npend == 0 || ex.pend[0].kind != kind {
		panic("dgraph: Flush of a value or push round that is not the oldest in the pipeline")
	}
	p := ex.pend[0]
	checkTally(p.tally, counted)
	res := ex.join()
	srcs := ex.plan.recvRanks
	if kind == roundValuesRev {
		srcs = ex.plan.sendRanks
	}
	tr := TallyRound{own: p.wire, srcs: srcs, flat: res.tallies, n: len(p.wire), rank: int32(ex.g.Comm.Rank())}
	switch {
	case counted && p.wire == nil:
		tr = reduceCount(ex.g.Comm, count)
	case counted:
		tr.count, tr.lag = tr.Sum(0), 1
		if tr.n == 2 {
			tr.max, tr.maxOK = tr.Max(1), true
		}
		ex.lastCount = count
	case p.wire == nil && len(p.tally.Vals) > 0:
		tr = reduceTally(ex.g.Comm, p.tally.Vals, p.tally.Float, &ex.fscratch)
	}
	return res.outL, res.outP, tr
}

// postValues posts a value or push round whose pairs are staged per
// destination in idx/val: it encodes one message per destination rank
// against the pair's shared list into the enc arenas, appends the
// round's tally frame, and sends.
//
//repro:hotpath
func (ex *DeltaExchanger) postValues(kind roundKind, tally *Tally, ranks []int32, lists, idx [][]int32, val, enc [][]int64) {
	t := tallyOf(tally)
	wire := ex.valueFrame(t)
	tag := ex.post(pendingRound{kind: kind, tally: t, wire: wire}, len(wire))
	for i, dst := range ranks {
		buf := encodeValues(enc[i][:0], len(lists[i]), idx[i], val[i])
		enc[i] = mpi.AppendTally(ex.g.Comm, buf, wire)
		mpi.Isend64Tag(ex.g.Comm, int(dst), tag, enc[i])
	}
}

// BeginValues posts a split-phase owner → ghost value round: it encodes
// and sends full 64-bit payloads for the given owned vertices to every
// neighbor ghosting them — with the round's tally frame appended to
// each message — and tells the background drainer to start collecting
// the symmetric incoming messages. The caller then computes work that
// does not read ghost values (interior vertices) while the messages
// are in flight, and settles with FlushValues (FlushCount for a counted
// round). Up to the exchanger's pipeline depth rounds may be posted
// before flushing; lids and payloads are consumed before BeginValues
// returns, but tally.Vals must stay untouched until the round's Flush
// returns.
//
//repro:hotpath
func (ex *DeltaExchanger) BeginValues(lids []int32, payloads []int64, tally *Tally) {
	plan := ex.plan
	for i := range ex.fwdIdx {
		ex.fwdIdx[i] = ex.fwdIdx[i][:0]
		ex.fwdVal[i] = ex.fwdVal[i][:0]
	}
	for qi, lid := range lids {
		if int(lid) >= len(plan.targets) {
			panic(fmt.Sprintf("dgraph: BeginValues with non-owned lid %d", lid))
		}
		for _, t := range plan.targets[lid] {
			ex.fwdIdx[t.rankPos] = append(ex.fwdIdx[t.rankPos], t.idx)
			ex.fwdVal[t.rankPos] = append(ex.fwdVal[t.rankPos], payloads[qi])
		}
	}
	ex.postValues(roundValuesFwd, tally, plan.sendRanks, plan.sendLists, ex.fwdIdx, ex.fwdVal, ex.fwdEnc)
}

// FlushValues joins the oldest pending round — which must be an
// uncounted BeginValues round — and returns the (ghost lid, payload)
// pairs received plus the round's tally. The returned slices alias
// exchanger arenas and stay valid for depth-1 subsequent rounds.
//
//repro:hotpath
func (ex *DeltaExchanger) FlushValues() ([]int32, []int64, TallyRound) {
	return ex.settleValues(roundValuesFwd, false, 0)
}

// FlushCount is FlushValues for a counted round: it hands over this
// rank's convergence counter for the round. On a complete
// neighbourhood the counter rides the next counted round's messages,
// so the TallyRound reports the previous round's global counter with
// Lag 1 (and the carried maximum); on an incomplete one it is reduced
// by Allreduce now, with Lag 0.
//
//repro:hotpath
func (ex *DeltaExchanger) FlushCount(count int64) ([]int32, []int64, TallyRound) {
	return ex.settleValues(roundValuesFwd, true, count)
}

// BeginPush posts a split-phase ghost → owner value round: payloads for
// the given ghost vertices travel to their owning ranks, with the
// round's tally frame appended to each message. Settle with FlushPush.
// Like BeginValues it may be posted while one earlier round is still
// in flight — the overlapped BFS posts the next depth's discovery push
// while the previous depth's ghost refresh is still pending.
//
//repro:hotpath
func (ex *DeltaExchanger) BeginPush(lids []int32, payloads []int64, tally *Tally) {
	plan := ex.plan
	for i := range ex.revIdx {
		ex.revIdx[i] = ex.revIdx[i][:0]
		ex.revVal[i] = ex.revVal[i][:0]
	}
	for qi, lid := range lids {
		gi := int(lid) - ex.g.NLocal
		if gi < 0 || gi >= ex.g.NGhost {
			panic(fmt.Sprintf("dgraph: BeginPush with owned lid %d", lid))
		}
		pos := plan.ghostRankPos[gi]
		ex.revIdx[pos] = append(ex.revIdx[pos], plan.ghostIdx[gi])
		ex.revVal[pos] = append(ex.revVal[pos], payloads[qi])
	}
	ex.postValues(roundValuesRev, tally, plan.recvRanks, plan.recvLists, ex.revIdx, ex.revVal, ex.revEnc)
}

// FlushPush joins the oldest pending round — which must be a BeginPush
// round — and returns the (owned lid, payload) pairs received plus the
// round's tally. The returned slices alias exchanger arenas and stay
// valid for depth-1 subsequent rounds.
//
//repro:hotpath
func (ex *DeltaExchanger) FlushPush() ([]int32, []int64, TallyRound) {
	return ex.settleValues(roundValuesRev, false, 0)
}
