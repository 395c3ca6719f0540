package analytics

import (
	"time"

	"repro/internal/dgraph"
	"repro/internal/par"
)

// The analytics engine. Every label-propagation-style analytic (WCC,
// KC, LP) runs the same round on the graph's dgraph.Exchanger:
//
//   - Split-phase sweeps: each round relaxes boundary vertices first,
//     posts their new values with BeginValues, relaxes interior
//     vertices — which read no ghost values — while the round is in
//     flight, and settles ghosts at FlushCount. On the delta engine the
//     interior sweep overlaps the messages; on the bulk engine the
//     round ships at the Flush. Both sweep in the same boundary-first
//     order, so results are bit-identical.
//   - A convergence counter handed over at the Flush: each rank's
//     changed-vertex count. The bulk engine (and the delta engine on an
//     incomplete rank neighbourhood) reduces it exactly in the same
//     round; on a complete neighbourhood the delta engine carries it on
//     the next round's messages instead of paying an Allreduce, and
//     reports that one-round lag, which the loop subtracts from its
//     round count.
//
// BFS runs on the wave schedule of hc_waves.go — pipelined two rounds
// deep on the delta engine, several waves at once for Harmonic
// Centrality on a deeper pipeline — and analytics with a final max
// reduction can ride it next to the counter (engine.aux, used by
// K-Core).

// engine bundles the exchanger and the parallel sweep machinery of one
// analytic run.
type engine struct {
	g  *dgraph.Graph
	ex dgraph.Exchanger

	// aux, when set before propagate, is an extra non-negative value
	// carried next to the convergence counter (Tally.Max) and
	// max-combined across ranks. At the round that detects convergence
	// the propagated values are final, so the carried maximum is the
	// analytic's global maximum for free — K-Core's coreness maximum
	// rides it instead of a trailing Allreduce. auxVal/auxOK hold the
	// result when the engine carried it.
	aux    func() int64
	auxVal int64
	auxOK  bool

	// Arenas reused across rounds.
	changed []int32
	payload []int64
	tbuf    [1]int64
	tally   dgraph.Tally

	// Intra-rank parallel sweep machinery. Each relaxation sweep fans
	// the vertex list across threads with par.ForChunk; workers queue
	// (vertex, value) updates into per-thread lanes, which merge in
	// thread-id order — contiguous ascending chunks, so merged order is
	// ascending list order at every thread count — and are applied on
	// the main goroutine. sweepBody is the stored chunk body
	// (relaxChunk bound once at construction, so steady-state sweeps
	// allocate no closures); list and relax are the per-sweep inputs it
	// reads.
	threads   int
	q         *par.Queues[relaxUpd]
	recs      []relaxUpd
	list      []int32
	relax     func(v int32, tid int) (int64, bool)
	sweepBody func(lo, hi, tid int)
	sweepTime time.Duration

	// BFS parallel-expansion machinery (bfs.go): per-thread discovery
	// queues — owned vertices and ghosts separately — plus the stored
	// chunk body and its per-sweep inputs. Discovery uses a CAS on the
	// level array, so every same-round write carries the same value
	// (depth+1) and the winner is irrelevant: level arrays and frontier
	// SETS are bit-identical at every thread count.
	qNext      *par.Queues[int32]
	qGhost     *par.Queues[int32]
	ball       []int64
	bfrontier  []int32
	bdepth     int64
	bboundary  bool
	expandBody func(lo, hi, tid int)
}

// relaxUpd is one sweep update: vertex v takes value val when the
// sweep's records are applied.
type relaxUpd struct {
	v   int32
	val int64
}

// newEngine binds the engine to the exchanger the graph's
// SetAsyncExchange selected.
func newEngine(g *dgraph.Graph) *engine {
	e := &engine{g: g, ex: g.Exchanger(), threads: g.Comm.Threads()}
	if e.threads < 1 {
		e.threads = 1
	}
	e.q = par.NewQueues[relaxUpd](e.threads)
	e.sweepBody = e.relaxChunk
	e.qNext = par.NewQueues[int32](e.threads)
	e.qGhost = par.NewQueues[int32](e.threads)
	e.expandBody = e.expandChunk
	return e
}

// relaxChunk relaxes the [lo, hi) slice of the current sweep list with
// thread-local scratch tid, queueing each changed vertex's new value.
// Workers only read round-frozen state and write their own lane, so
// chunks race on nothing; the merged records are applied on the main
// goroutine (see sweep/applySweep).
//
//repro:hotpath
func (e *engine) relaxChunk(lo, hi, tid int) {
	list, relax := e.list, e.relax
	for i := lo; i < hi; i++ {
		v := list[i]
		if nv, changed := relax(v, tid); changed {
			e.q.Push(tid, relaxUpd{v: v, val: nv})
		}
	}
}

// sweep fans list across the engine's threads and merges the
// per-thread update queues into e.recs in thread-id order.
//
//repro:timing
func (e *engine) sweep(list []int32) {
	start := time.Now()
	e.list = list
	par.ForChunk(0, len(list), e.threads, e.sweepBody)
	e.recs = e.q.MergeInto(e.recs[:0])
	e.sweepTime += time.Since(start)
}

// applySweep commits the merged sweep records: each vertex takes its
// new value and joins the changed list.
//
//repro:hotpath
func (e *engine) applySweep(vals []int64) {
	for _, r := range e.recs {
		vals[r.v] = r.val
		e.changed = append(e.changed, r.v)
	}
}

// values gathers vals[lids] into the engine's payload arena.
func (e *engine) values(lids []int32, vals []int64) []int64 {
	e.payload = e.payload[:0]
	for _, v := range lids {
		e.payload = append(e.payload, vals[v])
	}
	return e.payload
}

// propagate runs label-propagation-style rounds over vals: each round
// relaxes every owned vertex in boundary-first order (relax returns
// v's candidate value and whether it changed), ships the changed
// boundary values owner → ghost, and stops when no vertex changed
// anywhere or after maxIters rounds (maxIters <= 0: unbounded). It
// returns the number of rounds executed, not counting the rounds the
// convergence counter lagged behind.
//
// Rounds are two phase-Jacobi sweeps: the boundary sweep computes
// updates from the round-start state and applies them all at once,
// then the interior sweep computes from round-start + applied-boundary
// state. relax must therefore be pure — read vals, return the new
// value — never write it; the engine commits updates between phases.
// That phase discipline is what makes the parallel sweeps exact: every
// worker reads the same frozen state regardless of chunk boundaries,
// so per-round state and the fixed point are bit-identical across
// thread counts AND across engines. When the counter lags one round,
// convergence costs one extra round, which by definition changes
// nothing.
func (e *engine) propagate(vals []int64, relax func(v int32, tid int) (int64, bool), maxIters int) int {
	g, ex := e.g, e.ex
	bnd, inr := g.BoundaryVertices(), g.InteriorVertices()
	iters := 0
	e.relax = relax
	for maxIters <= 0 || iters < maxIters {
		iters++
		e.changed = e.changed[:0]
		e.sweep(bnd)
		e.applySweep(vals)
		// Interior vertices are ghosted nowhere, so only the boundary
		// prefix has destinations; BeginValues consumes it, so the
		// interior sweep may append behind it.
		e.tally = dgraph.Tally{Round: iters, Max: e.aux}
		ex.BeginValues(e.changed, e.values(e.changed, vals), &e.tally)
		e.sweep(inr)
		e.applySweep(vals)
		outL, outP, tr := ex.FlushCount(int64(len(e.changed)))
		for i, lid := range outL {
			vals[lid] = outP[i]
		}
		if tr.Count() == 0 {
			// No vertex changed anywhere Lag() rounds ago, so the
			// values have been final since then: the maximum carried
			// with the counter is the analytic's global maximum.
			iters -= tr.Lag()
			e.auxVal, e.auxOK = tr.CountMax()
			break
		}
	}
	return iters
}
