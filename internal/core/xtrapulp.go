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

	// ex is the exchange engine Options.Exchange selects.
	ex dgraph.Exchanger

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
	// The delta engine is shared with the analytics: built
	// collectively on the first call per graph, cached after.
	s.ex = g.ExchangerFor(opt.Exchange == ExchangeAsyncDelta)

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

// tallyLen is the tally length of a balance/refine round: per-part
// vertex deltas, plus edge and cut deltas during the edge stages.
func (s *state) tallyLen(withEdges bool) int {
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

// exchange ships the queued owned-vertex updates of a tally-free round
// and applies the incoming updates to this rank's ghosts.
func (s *state) exchange(q []dgraph.Update) {
	in, _ := s.ex.FlushTally(q, nil)
	s.applyGhostUpdates(in)
}

// takeTally snapshots this iteration's local part-size deltas into a
// tally vector ([cv] or [cv | ce | cc]) and zeroes the counters. The
// worker threads have joined by the time it runs, so the reads need no
// atomics.
func (s *state) takeTally(withEdges bool) []int64 {
	t := make([]int64, s.tallyLen(withEdges))
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

// exchangeSettle finishes one balance/refine iteration (the
// end-of-iteration block of Algorithms 4 and 5, extended with edge and
// cut tallies): it ships the queued updates with this rank's delta
// tally, applies the incoming ghost updates, and folds the global
// deltas the exchanger settled into the size estimates. It returns the
// number of vertices that moved, exact on both engines.
func (s *state) exchangeSettle(q []dgraph.Update, withEdges bool) int64 {
	in, tr := s.ex.FlushTally(q, s.takeTally(withEdges))
	s.applyGhostUpdates(in)
	var moved int64
	for i := 0; i < s.p; i++ {
		d := tr.Sum(i)
		if d > 0 {
			moved += d
		}
		s.sv[i] += d
		if withEdges {
			s.se[i] += tr.Sum(s.p + i)
			s.sc[i] += tr.Sum(2*s.p + i)
		}
	}
	return moved
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
