package core

import (
	"sync/atomic"

	"repro/internal/dgraph"
	"repro/internal/par"
)

// vertBalance implements Algorithm 4: degree-weighted label propagation
// with the weighting function Wv(i) ≈ Imbv / size_estimate(i) − 1 and
// the dynamic multiplier damping concurrent moves into a part.
func (s *state) vertBalance() {
	g := s.g
	s.recountSizes(false)
	threads := s.threads()
	// Balance drives part sizes toward the ideal n/p, not merely under
	// the constraint cap Imbv: the slack between ideal and cap is the
	// headroom the edge-balancing stage needs to shift edge weight
	// without violating the vertex constraint.
	idealV := float64(g.NGlobal) / float64(s.p)

	// Hard receiver caps always assume the worst case — every rank adds
	// as much as this one (capMult = nprocs) — so a part can never be
	// pushed past its cap within one iteration. The scheduled mult only
	// shapes the attraction weights, ramping movement freedom down as
	// iterations progress (the paper's X/Y schedule).
	capMult := float64(g.Comm.Size())
	scans := newPartScans(threads, s.p)

	for iter := 0; iter < s.opt.Ibal; iter++ {
		maxV := maxOf(s.sv, s.imbV)
		mult := s.mult()
		queues := par.NewQueues[dgraph.Update](threads)
		s.beginExchange(s.roundTallyLen(false))
		// weight is the attraction of part i, 0 for a part at its cap.
		weight := func(i int32) float64 {
			cvi := float64(atomic.LoadInt64(&s.cv[i]))
			if float64(s.sv[i])+capMult*cvi+1 > maxV {
				return 0
			}
			est := float64(s.sv[i]) + mult*cvi
			if est < 1 {
				est = 1
			}
			w := idealV/est - 1
			if w < 0 {
				w = 0
			}
			return w
		}

		par.ForChunk(0, g.NLocal, threads, func(lo, hi, tid int) {
			ps := &scans[tid]
			counts := ps.counts
			for vi := lo; vi < hi; vi++ {
				v := int32(vi)
				x := s.loadPart(v)
				// Balancing moves vertices out of overweight parts only;
				// a part within its budget never loses vertices here,
				// which keeps parts alive and flow monotone from over-
				// to underweight parts.
				estX := float64(s.sv[x]) + mult*float64(atomic.LoadInt64(&s.cv[x]))
				if estX <= idealV {
					continue
				}
				// Weigh only the parts v's neighbours touch, clearing
				// their counts for the next vertex; a part with no
				// neighbours scores 0 and cannot win (see "Per-vertex
				// cost" in the package documentation).
				cand := ps.tallyDegrees(s, v)
				w, best := x, float64(counts[x])*weight(x)
				for _, i := range cand {
					c := counts[i]
					if c == 0 {
						continue
					}
					counts[i] = 0
					if f := float64(c) * weight(i); better(f, best, i, w, x) {
						best, w = f, i
					}
				}
				if w == x || best <= 0 {
					// No underweight part appears in v's neighborhood
					// (it may be empty, or far away). Fall back to the
					// globally most underweight part so the balance
					// phase always converges; refinement restores cut
					// quality afterwards.
					w = x
					bestW := 0.0
					for i := 0; i < s.p; i++ {
						if int32(i) == x {
							continue
						}
						cvi := float64(atomic.LoadInt64(&s.cv[i]))
						if float64(s.sv[i])+capMult*cvi+1 > s.imbV {
							continue
						}
						est := float64(s.sv[i]) + mult*cvi
						if est < 1 {
							est = 1
						}
						if wv := idealV/est - 1; wv > bestW {
							bestW = wv
							w = int32(i)
						}
					}
				}
				if w != x {
					atomic.AddInt64(&s.cv[x], -1)
					atomic.AddInt64(&s.cv[w], 1)
					s.storePart(v, w)
					queues.Push(tid, dgraph.Update{LID: v, Value: w})
				}
			}
		})

		moved := s.exchangeSettle(queues.Merge(), false)
		s.trace("vbal", mult, moved)
		s.iterTot++
	}
}

// vertRefine implements Algorithm 5: unweighted label propagation
// (each vertex adopts its neighborhood's plurality part) constrained so
// no part exceeds Max(current max size, Imbv) under the multiplier
// estimate — a constrained FM-style refinement of the global cut.
func (s *state) vertRefine() {
	g := s.g
	s.recountSizes(false)
	threads := s.threads()

	// Refinement uses the worst-case multiplier nprocs for its receiver
	// caps: every rank assumes its peers add as much as it does. Unlike
	// balancing, refinement cannot shed from overweight parts (plurality
	// keeps interiors), so an early-schedule overshoot here would
	// persist to the final partition.
	mult := float64(g.Comm.Size())
	scans := newPartScans(threads, s.p)

	for iter := 0; iter < s.opt.Iref; iter++ {
		queues := par.NewQueues[dgraph.Update](threads)
		s.beginExchange(s.roundTallyLen(false))

		par.ForChunk(0, g.NLocal, threads, func(lo, hi, tid int) {
			ps := &scans[tid]
			counts := ps.counts
			for vi := lo; vi < hi; vi++ {
				v := int32(vi)
				// Scan only the parts v's neighbours touch, clearing
				// their counts for the next vertex, as in vertBalance.
				cand := ps.tally(s, v)
				x := s.loadPart(v)
				w, best := x, counts[x]
				for _, i := range cand {
					c := counts[i]
					counts[i] = 0
					if !better(c, best, i, w, x) {
						continue
					}
					// A move may not push the receiving part above the
					// vertex target Imbv: refinement only rearranges
					// within the balance envelope.
					est := float64(s.sv[i]) + mult*float64(atomic.LoadInt64(&s.cv[i]))
					if est+1 > s.imbV {
						continue
					}
					best, w = c, i
				}
				if w != x {
					atomic.AddInt64(&s.cv[x], -1)
					atomic.AddInt64(&s.cv[w], 1)
					s.storePart(v, w)
					queues.Push(tid, dgraph.Update{LID: v, Value: w})
				}
			}
		})

		moved := s.exchangeSettle(queues.Merge(), false)
		s.trace("vref", mult, moved)
		s.iterTot++
	}
}
