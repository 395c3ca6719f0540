package core

import (
	"sync/atomic"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/rng"
)

// initialize produces the starting part assignment according to the
// configured strategy and returns the number of propagation rounds.
func (s *state) initialize() int {
	switch s.opt.Init {
	case InitRandom:
		s.initRandom()
		return 0
	case InitBlock:
		s.initBlock()
		return 0
	default:
		return s.initBFS()
	}
}

// initRandom assigns every owned vertex a uniform random part and
// propagates assignments to ghosts.
func (s *state) initRandom() {
	r := rng.NewStream(s.opt.Seed, uint64(s.g.Comm.Rank()))
	q := make([]dgraph.Update, s.g.NLocal)
	for v := 0; v < s.g.NLocal; v++ {
		w := int32(r.Intn(s.p))
		s.parts[v] = w
		q[v] = dgraph.Update{LID: int32(v), Value: w}
	}
	s.exchange(q)
}

// initBlock assigns parts by contiguous global-id blocks (vertex block
// partitioning), the initialization used for the paper's analytics runs.
func (s *state) initBlock() {
	q := make([]dgraph.Update, s.g.NLocal)
	for v := 0; v < s.g.NLocal; v++ {
		gid := s.g.L2G[v]
		w := int32(gid * int64(s.p) / s.g.NGlobal)
		if int(w) >= s.p {
			w = int32(s.p - 1)
		}
		s.parts[v] = w
		q[v] = dgraph.Update{LID: int32(v), Value: w}
	}
	s.exchange(q)
}

// initBFS implements Algorithm 2: the master rank broadcasts p unique
// random roots; each root seeds one part; unassigned vertices adopt a
// uniformly random part present in their neighborhood, iterating until
// no assignments occur; leftovers (rootless components) get random
// parts.
func (s *state) initBFS() int {
	g := s.g
	c := g.Comm

	// Root selection on rank 0, broadcast to all (UniqueRand + Bcast).
	var roots []int64
	if c.Rank() == 0 {
		r := rng.New(s.opt.Seed)
		n := g.NGlobal
		k := int64(s.p)
		if k > n {
			k = n
		}
		roots = r.Sample(n, k)
	}
	roots = mpi.Bcast(c, 0, roots)

	// parts ← -1; owned roots adopt their selection-order part.
	for i := range s.parts {
		s.parts[i] = -1
	}
	pending := 0
	var rootQ []dgraph.Update
	for i, gid := range roots {
		if lid, ok := g.G2L[gid]; ok && !g.IsGhost(lid) {
			s.parts[lid] = int32(i)
			rootQ = append(rootQ, dgraph.Update{LID: lid, Value: int32(i)})
			pending++
		}
	}
	s.exchange(rootQ)

	// Primary propagation loop. The round's assignment counter is its
	// tally: on the delta engine with a complete rank neighborhood it
	// piggybacks on the update messages, so the termination test needs
	// no Allreduce.
	threads := s.threads()
	rounds := 0
	for {
		rounds++
		queues := par.NewQueues[dgraph.Update](threads)
		s.ex.BeginTally(1)
		var updates int64
		par.ForChunk(0, g.NLocal, threads, func(lo, hi, tid int) {
			r := rng.NewStream(s.opt.Seed^0xBF0F, uint64(rounds)<<32|uint64(tid)<<16|uint64(c.Rank()))
			var local int64
			// isAssigned tracked as the candidate list itself: collect
			// the distinct neighbor parts, then pick one uniformly.
			seen := make([]bool, s.p)
			cands := make([]int32, 0, 16)
			for v := lo; v < hi; v++ {
				if s.parts[v] != -1 {
					continue
				}
				cands = cands[:0]
				for _, u := range g.Neighbors(int32(v)) {
					pu := s.loadPart(u)
					if pu >= 0 && !seen[pu] {
						seen[pu] = true
						cands = append(cands, pu)
					}
				}
				if len(cands) == 0 {
					continue
				}
				w := cands[r.Intn(len(cands))]
				for _, pc := range cands {
					seen[pc] = false
				}
				s.storePart(int32(v), w)
				queues.Push(tid, dgraph.Update{LID: int32(v), Value: w})
				local++
			}
			atomic.AddInt64(&updates, local)
		})
		in, tr := s.ex.FlushTally(queues.Merge(), []int64{updates})
		s.applyGhostUpdates(in)
		if tr.Sum(0) == 0 {
			break
		}
	}

	// Leftovers: random assignment for vertices unreached by any root
	// (disconnected components), then one final exchange.
	queues := par.NewQueues[dgraph.Update](threads)
	s.ex.BeginTally(0)
	par.ForChunk(0, g.NLocal, threads, func(lo, hi, tid int) {
		r := rng.NewStream(s.opt.Seed^0xD00D, uint64(tid)<<16|uint64(c.Rank()))
		for v := lo; v < hi; v++ {
			if s.parts[v] == -1 {
				w := int32(r.Intn(s.p))
				s.storePart(int32(v), w)
				queues.Push(tid, dgraph.Update{LID: int32(v), Value: w})
			}
		}
	})
	s.exchange(queues.Merge())
	return rounds
}
