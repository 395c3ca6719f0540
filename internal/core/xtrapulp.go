package core

import (
	"sync/atomic"
	"time"

	"repro/internal/dgraph"
	"repro/internal/mpi"
)

// state bundles everything a partitioning run shares across stages.
type state struct {
	g   *dgraph.Graph
	opt Options
	p   int

	// ex is the asynchronous delta exchanger, nil in sync mode.
	ex *dgraph.DeltaExchanger

	// tallyExact records whether every rank neighbors every other —
	// detected collectively at startup in async mode. Then the
	// piggybacked own+neighbor tally sums are exactly the global sums,
	// so settles ride on the update messages with no Allreduce.
	tallyExact bool

	// parts holds assignments for owned and ghost vertices. Hot-loop
	// reads and writes go through atomics because intra-rank threads
	// update it asynchronously (the paper's "asynchronous intra-task
	// updates").
	parts []int32

	// Part size estimates (global, replicated per rank) and the
	// per-iteration change tallies the multiplier damps.
	sv []int64 // vertices per part
	se []int64 // edge endpoints (degree sum) per part
	sc []int64 // cut edges incident per part
	cv []int64 // vertex deltas this iteration (atomic)
	ce []int64 // edge deltas this iteration (atomic)
	cc []int64 // cut deltas this iteration (atomic)

	// Multiplier schedule: iterTot counts inner iterations within the
	// current outer stage group; iTot is Iouter*(Ibal+Iref).
	iterTot int
	iTot    int

	// Constraint targets.
	imbV float64 // max vertices per part
	imbE float64 // max edge endpoints per part
}

// Partition runs XtraPuLP on the distributed graph shard g. It is a
// collective call: every rank of g.Comm must invoke it with identical
// options. It returns the part assignment for this rank's owned and
// ghost vertices (length g.NTotal()) and a run report.
//
//repro:deterministic
//repro:timing
func Partition(g *dgraph.Graph, opt Options) ([]int32, Report, error) {
	if err := opt.validate(); err != nil {
		return nil, Report{}, err
	}
	if int64(opt.NumParts) > g.NGlobal && g.NGlobal > 0 {
		opt.NumParts = int(g.NGlobal)
	}
	s := &state{
		g:     g,
		opt:   opt,
		p:     opt.NumParts,
		parts: make([]int32, g.NTotal()),
		sv:    make([]int64, opt.NumParts),
		se:    make([]int64, opt.NumParts),
		sc:    make([]int64, opt.NumParts),
		cv:    make([]int64, opt.NumParts),
		ce:    make([]int64, opt.NumParts),
		cc:    make([]int64, opt.NumParts),
		iTot:  opt.Iouter * (opt.Ibal + opt.Iref),
	}
	s.imbV = (1 + opt.VertImbalance) * float64(g.NGlobal) / float64(s.p)
	s.imbE = (1 + opt.EdgeImbalance) * float64(2*g.MGlobal) / float64(s.p)
	if opt.Exchange == ExchangeAsyncDelta {
		s.ex = g.AsyncExchanger()
		// Shared with the overlapped analytics engines: collective on
		// the first call per graph, cached after.
		s.tallyExact = s.ex.NeighborhoodComplete()
	}

	var rep Report
	sentBefore := g.Comm.Stats().ElemsSent
	redBefore := g.Comm.Stats().ReductionOps
	start := time.Now()

	t0 := time.Now()
	rep.InitIters = s.initialize()
	rep.InitTime = time.Since(t0)

	// Outer loop 1: vertex balance + refinement (Algorithm 1).
	t0 = time.Now()
	s.iterTot = 0
	for outer := 0; outer < opt.Iouter; outer++ {
		s.vertBalance()
		s.vertRefine()
	}
	rep.VertTime = time.Since(t0)

	// Outer loop 2: edge balance + refinement.
	if !opt.SingleConstraint {
		t0 = time.Now()
		s.iterTot = 0
		for outer := 0; outer < opt.Iouter; outer++ {
			s.edgeBalance()
			s.edgeRefine()
		}
		rep.EdgeTime = time.Since(t0)
	}

	rep.TotalTime = time.Since(start)
	sentDuring := g.Comm.Stats().ElemsSent - sentBefore
	rep.ReductionOps = g.Comm.Stats().ReductionOps - redBefore
	rep.ExchangeVolume = mpi.AllreduceScalar(g.Comm, sentDuring, mpi.Sum)
	rep.Quality = dgraph.EvaluateDistributed(g, s.parts, s.p)
	return s.parts, rep, nil
}

// mult computes the dynamic multiplier for the current iteration,
// mult = nprocs × ((X−Y)·iter_tot/I_tot + Y), floored at 1: a value
// below 1 would make each rank's size estimate sv + mult·cv undertrack
// even its own local moves, letting receivers overshoot their targets
// within a single iteration (visible at small rank counts where
// nprocs·Y < 1).
func (s *state) mult() float64 {
	frac := 0.0
	if s.iTot > 0 {
		frac = float64(s.iterTot) / float64(s.iTot)
	}
	m := float64(s.g.Comm.Size()) * ((s.opt.X-s.opt.Y)*frac + s.opt.Y)
	if m < 1 {
		m = 1
	}
	return m
}

// threads returns the intra-rank worker budget.
func (s *state) threads() int { return s.g.Comm.Threads() }

// loadPart atomically reads a part label.
func (s *state) loadPart(v int32) int32 {
	return atomic.LoadInt32(&s.parts[v])
}

// storePart atomically writes a part label.
func (s *state) storePart(v int32, w int32) {
	atomic.StoreInt32(&s.parts[v], w)
}

// piggyback reports whether settles ride on the update messages
// instead of a per-iteration Allreduce: async mode on a complete rank
// neighborhood. Elsewhere the piggybacked tallies would miss
// non-neighbor ranks, so settles stay exact by Allreduce and the
// partition identical to sync mode.
func (s *state) piggyback() bool { return s.ex != nil && s.tallyExact }

// roundTallyLen is the tally length the next balance/refine exchange
// round carries: per-part vertex deltas, plus edge and cut deltas
// during the edge stages.
func (s *state) roundTallyLen(withEdges bool) int {
	if !s.piggyback() {
		return 0
	}
	if withEdges {
		return 3 * s.p
	}
	return s.p
}

// recountSizes recomputes the global part sizes sv/se/sc from current
// assignments (used when entering a stage), and zeroes the deltas.
func (s *state) recountSizes(withCut bool) {
	local := make([]int64, 3*s.p)
	for v := 0; v < s.g.NLocal; v++ {
		pv := s.parts[v]
		local[pv]++
		local[s.p+int(pv)] += s.g.Degree(int32(v))
		if withCut {
			for _, u := range s.g.Neighbors(int32(v)) {
				if s.parts[u] != pv {
					local[2*s.p+int(pv)]++
				}
			}
		}
	}
	global := mpi.Allreduce(s.g.Comm, local, mpi.Sum)
	copy(s.sv, global[0:s.p])
	copy(s.se, global[s.p:2*s.p])
	copy(s.sc, global[2*s.p:3*s.p])
	for i := 0; i < s.p; i++ {
		s.cv[i], s.ce[i], s.cc[i] = 0, 0, 0
	}
}

// settleDeltas Allreduces the per-iteration deltas, folds them into the
// size estimates, and resets them (the end-of-iteration block of
// Algorithms 4 and 5, extended with edge and cut tallies). It returns
// the number of vertices that changed parts globally this iteration.
func (s *state) settleDeltas(withEdges bool) int64 {
	if !withEdges {
		global := mpi.Allreduce(s.g.Comm, s.cv, mpi.Sum)
		var moved int64
		for i := 0; i < s.p; i++ {
			s.sv[i] += global[i]
			if global[i] > 0 {
				moved += global[i]
			}
			s.cv[i] = 0
		}
		return moved
	}
	buf := make([]int64, 3*s.p)
	copy(buf[0:s.p], s.cv)
	copy(buf[s.p:2*s.p], s.ce)
	copy(buf[2*s.p:3*s.p], s.cc)
	global := mpi.Allreduce(s.g.Comm, buf, mpi.Sum)
	var moved int64
	for i := 0; i < s.p; i++ {
		s.sv[i] += global[i]
		if global[i] > 0 {
			moved += global[i]
		}
		s.se[i] += global[i+s.p]
		s.sc[i] += global[i+2*s.p]
		s.cv[i], s.ce[i], s.cc[i] = 0, 0, 0
	}
	return moved
}

// trace emits a TraceEvent on rank 0 if tracing is configured.
func (s *state) trace(stage string, mult float64, moved int64) {
	if s.opt.Trace == nil || s.g.Comm.Rank() != 0 {
		return
	}
	var maxV, maxE, maxC int64
	for i := 0; i < s.p; i++ {
		if s.sv[i] > maxV {
			maxV = s.sv[i]
		}
		if s.se[i] > maxE {
			maxE = s.se[i]
		}
		if s.sc[i] > maxC {
			maxC = s.sc[i]
		}
	}
	s.opt.Trace(TraceEvent{
		Stage: stage, Iter: s.iterTot, Mult: mult,
		MaxVerts: maxV, MaxEdges: maxE, MaxCut: maxC, Moved: moved,
	})
}

// applyGhostUpdates writes received boundary updates into parts.
func (s *state) applyGhostUpdates(recv []dgraph.Update) {
	for _, upd := range recv {
		s.storePart(upd.LID, upd.Value)
	}
}

// beginExchange posts the receive side of the next boundary exchange.
// In async mode a background drainer starts receiving and decoding
// neighbor updates immediately, overlapping with the propagation loop
// the caller is about to run; in sync mode it is a no-op. tallyLen
// declares the piggybacked tally frame the round's messages carry (0
// for none) and must match the exchange that follows. Every
// beginExchange must be followed by exactly one exchange call.
func (s *state) beginExchange(tallyLen int) {
	if s.ex != nil {
		s.ex.BeginTally(tallyLen)
	}
}

// exchange ships the queued owned-vertex updates and returns the
// incoming updates for this rank's ghosts, via the configured mode.
// It carries no tally; the balance/refine iterations use
// exchangeSettle instead.
func (s *state) exchange(q []dgraph.Update) []dgraph.Update {
	if s.ex != nil {
		return s.ex.Flush(q)
	}
	return s.g.ExchangeUpdates(q)
}

// takeTally snapshots this iteration's local part-size deltas into a
// tally vector ([cv] or [cv | ce | cc]) and zeroes the counters. The
// worker threads have joined by the time it runs, so the reads need no
// atomics.
func (s *state) takeTally(withEdges bool) []int64 {
	t := make([]int64, s.roundTallyLen(withEdges))
	copy(t[:s.p], s.cv)
	if withEdges {
		copy(t[s.p:2*s.p], s.ce)
		copy(t[2*s.p:], s.cc)
	}
	for i := 0; i < s.p; i++ {
		s.cv[i], s.ce[i], s.cc[i] = 0, 0, 0
	}
	return t
}

// exchangeSettle finishes one balance/refine iteration: it ships the
// queued updates (with this rank's delta tally piggybacked in async
// piggyback mode), applies the incoming ghost updates, and settles the
// global part-size estimates. It returns the number of vertices that
// moved, exact in every mode.
func (s *state) exchangeSettle(q []dgraph.Update, withEdges bool) int64 {
	if !s.piggyback() {
		s.applyGhostUpdates(s.exchange(q))
		return s.settleDeltas(withEdges)
	}
	own := s.takeTally(withEdges)
	in, recv := s.ex.FlushTally(q, own)
	s.applyGhostUpdates(in)
	return s.settlePiggyback(own, recv, withEdges)
}

// settlePiggyback folds this iteration's own and neighbor-received
// delta tallies into the size estimates. piggyback() holds only on a
// complete rank neighborhood, where own+received is the global delta,
// so the estimates equal sync mode's on every iteration.
func (s *state) settlePiggyback(own, recv []int64, withEdges bool) int64 {
	var moved int64
	for i := 0; i < s.p; i++ {
		d := own[i] + recv[i]
		if d > 0 {
			moved += d
		}
		s.sv[i] += d
		if withEdges {
			s.se[i] += own[s.p+i] + recv[s.p+i]
			s.sc[i] += own[2*s.p+i] + recv[2*s.p+i]
		}
	}
	return moved
}

// initTallyLen is the tally length initBFS propagation rounds carry:
// one element (the rank's assignment counter) when the complete rank
// neighborhood makes the piggybacked sum an exact termination test.
func (s *state) initTallyLen() int {
	if s.ex != nil && s.tallyExact {
		return 1
	}
	return 0
}

// exchangeInitCount finishes one initBFS propagation round: it ships
// the queued updates, applies incoming ghosts, and returns the global
// number of assignments made this round — from the piggybacked
// counters when exact, else by Allreduce.
func (s *state) exchangeInitCount(q []dgraph.Update, local int64) int64 {
	if s.initTallyLen() > 0 {
		in, t := s.ex.FlushTally(q, []int64{local})
		s.applyGhostUpdates(in)
		return local + t[0]
	}
	s.applyGhostUpdates(s.exchange(q))
	return mpi.AllreduceScalar(s.g.Comm, local, mpi.Sum)
}

// maxOf returns max(vals) as float64, floored at floor.
func maxOf(vals []int64, floor float64) float64 {
	m := floor
	for _, v := range vals {
		if f := float64(v); f > m {
			m = f
		}
	}
	return m
}
