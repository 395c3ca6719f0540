package core

import (
	"sync/atomic"

	"repro/internal/dgraph"
	"repro/internal/par"
)

// moveEdgeDeltas records the tallies of moving owned vertex v from part
// x to part w during the edge stage: vertex and degree deltas plus the
// exact per-part incident-cut deltas derived from v's current
// neighborhood labels.
func (s *state) moveEdgeDeltas(v int32, x, w int32) {
	g := s.g
	atomic.AddInt64(&s.cv[x], -1)
	atomic.AddInt64(&s.cv[w], 1)
	d := g.Degree(v)
	atomic.AddInt64(&s.ce[x], -d)
	atomic.AddInt64(&s.ce[w], d)
	for _, u := range g.Neighbors(v) {
		switch s.loadPart(u) {
		case x: // internal edge becomes cut: both x and w gain one
			atomic.AddInt64(&s.cc[x], 1)
			atomic.AddInt64(&s.cc[w], 1)
		case w: // cut edge becomes internal: both x and w lose one
			atomic.AddInt64(&s.cc[x], -1)
			atomic.AddInt64(&s.cc[w], -1)
		default: // stays cut; incidence shifts from x to w
			atomic.AddInt64(&s.cc[x], -1)
			atomic.AddInt64(&s.cc[w], 1)
		}
	}
}

// edgeBalance implements the edge-balancing stage (§III.E): the vertex
// weighting Wv is replaced by the combination Re·We(i) + Rc·Wc(i) of an
// edge-balance weight and a cut-balance weight. Re ramps up linearly
// while the edge constraint is violated, then freezes while Rc ramps to
// shift pressure onto minimizing and balancing the per-part cut.
func (s *state) edgeBalance() {
	g := s.g
	s.recountSizes(true)
	threads := s.threads()
	re, rc := 1.0, 1.0
	// Hard receiver caps use the worst-case multiplier; see vertBalance.
	capMult := float64(g.Comm.Size())
	scans := newPartScans(threads, s.p)
	var bound loadBound

	for iter := 0; iter < s.opt.Ibal; iter++ {
		maxC := maxOf(s.sc, 1)
		var sumC int64
		for _, c := range s.sc {
			sumC += c
		}
		avgC := float64(sumC) / float64(s.p)
		mult := s.mult()
		if maxOf(s.se, 0) > s.imbE {
			re++
		} else {
			rc++
		}
		queues := par.NewQueues[dgraph.Update](threads)
		s.ex.BeginTally(s.tallyLen(true))
		bound.recompute(s)
		// weight is the attraction of part i for a vertex of degree dv,
		// 0 for a part at its cap. Receivers are capped at the vertex
		// and edge targets so the balance achieved by earlier stages
		// cannot be destroyed here.
		weight := func(i int32, dv float64) float64 {
			cvi := float64(atomic.LoadInt64(&s.cv[i]))
			cei := float64(atomic.LoadInt64(&s.ce[i]))
			if float64(s.sv[i])+capMult*cvi+1 > s.imbV ||
				float64(s.se[i])+capMult*cei+dv > s.imbE {
				return 0
			}
			estE := float64(s.se[i]) + mult*cei
			estC := float64(s.sc[i]) + mult*float64(atomic.LoadInt64(&s.cc[i]))
			if estE < 1 {
				estE = 1
			}
			if estC < 1 {
				estC = 1
			}
			we := s.imbE/estE - 1
			if we < 0 {
				we = 0
			}
			wc := maxC/estC - 1
			if wc < 0 {
				wc = 0
			}
			return re*we + rc*wc
		}

		par.ForChunk(0, g.NLocal, threads, func(lo, hi, tid int) {
			ps := &scans[tid]
			counts := ps.counts
			for vi := lo; vi < hi; vi++ {
				v := int32(vi)
				x := s.loadPart(v)
				// Only vertices in parts that are overweight in edges
				// or carry an above-average cut participate: parts
				// within budget never bleed out during balancing.
				estEx := float64(s.se[x]) + mult*float64(atomic.LoadInt64(&s.ce[x]))
				estCx := float64(s.sc[x]) + mult*float64(atomic.LoadInt64(&s.cc[x]))
				overE := estEx > s.imbE
				overC := estCx > avgC
				if !overE && !overC {
					continue
				}
				cand := ps.tallyDegrees(s, v)
				dv := float64(g.Degree(v))
				w, best := x, float64(counts[x])*weight(x, dv)
				for _, i := range cand {
					c := counts[i]
					if c == 0 {
						continue
					}
					counts[i] = 0
					if f := float64(c) * weight(i, dv); better(f, best, i, w, x) {
						best, w = f, i
					}
				}
				if (w == x || best <= 0) && overE {
					// No weighted neighbor candidate: teleport toward
					// the most edge-underweight part that can take v,
					// else take a strictly balance-improving move —
					// unless the load bound proves both scans empty.
					w = x
					if !bound.noReceiver(s, dv, estEx) {
						if w = s.teleport(v, x, dv, mult); w == x {
							w = s.rotate(v, x, dv, estEx)
						}
					}
				}
				if w != x {
					s.moveEdgeDeltas(v, x, w)
					bound.lower(s.load(int(x)))
					s.storePart(v, w)
					queues.Push(tid, dgraph.Update{LID: v, Value: w})
				}
			}
		})

		moved := s.exchangeSettle(queues.Merge(), true)
		s.trace("ebal", mult, moved)
		s.iterTot++
	}
}

// teleport returns the most edge-underweight part other than x that
// can take v (degree dv) under the vertex and edge caps, or x if none.
func (s *state) teleport(v, x int32, dv, mult float64) int32 {
	capMult := float64(s.g.Comm.Size())
	w := x
	bestW := 0.0
	for i := 0; i < s.p; i++ {
		if int32(i) == x {
			continue
		}
		cvi := float64(atomic.LoadInt64(&s.cv[i]))
		cei := float64(atomic.LoadInt64(&s.ce[i]))
		if float64(s.sv[i])+capMult*cvi+1 > s.imbV ||
			float64(s.se[i])+capMult*cei+dv > s.imbE {
			continue
		}
		estE := float64(s.se[i]) + mult*cei
		if estE < 1 {
			estE = 1
		}
		if we := s.imbE/estE - 1; we > bestW {
			bestW = we
			w = int32(i)
		}
	}
	return w
}

// rotate handles a vertex stuck because every candidate receiver is at
// the edge target. This happens when hub degrees are comparable to (or
// above) the target itself, making the constraint locally infeasible.
// It returns a part that stays well below the donor x, with estimated
// load estEx, even after receiving v (estE + 2·deg(v) ≤ estEx prevents
// ping-ponging), or x if none. The scan starts at a vertex-dependent
// rotation so concurrent hub evictions spread over distinct receivers
// instead of all piling onto the single lightest part.
func (s *state) rotate(v, x int32, dv, estEx float64) int32 {
	capMult := float64(s.g.Comm.Size())
	start := int(uint64(s.g.L2G[v]) % uint64(s.p))
	for k := 0; k < s.p; k++ {
		i := (start + k) % s.p
		if int32(i) == x {
			continue
		}
		cvi := float64(atomic.LoadInt64(&s.cv[i]))
		if float64(s.sv[i])+capMult*cvi+1 > s.imbV {
			continue
		}
		estE := float64(s.se[i]) + capMult*float64(atomic.LoadInt64(&s.ce[i]))
		if estE+2*dv <= estEx && estE <= s.imbE {
			return int32(i)
		}
	}
	return x
}

// edgeRefine is the final refinement (§III.E): plurality label
// propagation constrained so a move cannot push any part's vertex
// count, edge count, or incident-cut count beyond the current global
// maxima (or targets, whichever is larger).
func (s *state) edgeRefine() {
	g := s.g
	s.recountSizes(true)
	threads := s.threads()

	// Worst-case multiplier for receiver caps; see vertRefine.
	mult := float64(g.Comm.Size())
	scans := newPartScans(threads, s.p)

	for iter := 0; iter < s.opt.Iref; iter++ {
		maxC := maxOf(s.sc, 1)
		queues := par.NewQueues[dgraph.Update](threads)
		s.ex.BeginTally(s.tallyLen(true))

		par.ForChunk(0, g.NLocal, threads, func(lo, hi, tid int) {
			ps := &scans[tid]
			counts := ps.counts
			for vi := lo; vi < hi; vi++ {
				v := int32(vi)
				cand := ps.tally(s, v)
				x := s.loadPart(v)
				dv := g.Degree(v)
				w, best := x, counts[x]
				for _, i := range cand {
					c := counts[i]
					counts[i] = 0
					if !better(c, best, i, w, x) {
						continue
					}
					// Moves must respect the vertex and edge targets and
					// may not raise any part's incident cut beyond the
					// current global maximum.
					estV := float64(s.sv[i]) + mult*float64(atomic.LoadInt64(&s.cv[i]))
					estE := float64(s.se[i]) + mult*float64(atomic.LoadInt64(&s.ce[i]))
					estC := float64(s.sc[i]) + mult*float64(atomic.LoadInt64(&s.cc[i]))
					cutAfter := float64(dv - c) // arcs leaving part i from v
					if estV+1 > s.imbV || estE+float64(dv) > s.imbE || estC+cutAfter > maxC {
						continue
					}
					best, w = c, i
				}
				if w != x {
					s.moveEdgeDeltas(v, x, w)
					s.storePart(v, w)
					queues.Push(tid, dgraph.Update{LID: v, Value: w})
				}
			}
		})

		moved := s.exchangeSettle(queues.Merge(), true)
		s.trace("eref", mult, moved)
		s.iterTot++
	}
}
