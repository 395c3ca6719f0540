// Package pulp reimplements the shared-memory PuLP-MM partitioner of
// Slota, Madduri, and Rajamanickam (IEEE BigData 2014), the prior work
// XtraPuLP extends and one of the paper's three comparison baselines.
//
// PuLP runs the same three conceptual stages as XtraPuLP — label
// propagation initialization, weighted vertex balancing, constrained
// refinement, then edge balancing — but in shared memory: part sizes
// are tracked exactly with atomic counters as vertices move, so no
// distributed size estimation or damping multiplier is needed.
package pulp

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/rng"
)

// Options configures a PuLP run.
type Options struct {
	// NumParts is the number of parts to compute.
	NumParts int
	// Iouter, Ibal, Iref mirror the XtraPuLP stage counts (3, 5, 10).
	Iouter, Ibal, Iref int
	// InitIters is the number of unconstrained label propagation
	// rounds used for initialization (PuLP's LP init).
	InitIters int
	// VertImbalance and EdgeImbalance are the constraint ratios.
	VertImbalance, EdgeImbalance float64
	// SingleConstraint skips the edge-balancing stage.
	SingleConstraint bool
	// Threads bounds intra-process parallelism. The repo-wide rule:
	// 0 (or negative) selects one worker per core (par.DefaultThreads),
	// an explicit 1 runs serial. PuLP's moves read neighbor parts
	// updated concurrently by other workers, so runs are deterministic
	// only at Threads = 1.
	Threads int
	// Seed drives the randomized initialization.
	Seed uint64
}

// DefaultOptions returns PuLP's default configuration for p parts.
func DefaultOptions(p int) Options {
	return Options{
		NumParts:      p,
		Iouter:        3,
		Ibal:          5,
		Iref:          10,
		InitIters:     3,
		VertImbalance: 0.10,
		EdgeImbalance: 0.10,
		Threads:       0, // one worker per core; see Options.Threads
		Seed:          1,
	}
}

// Report carries timings from a run.
type Report struct {
	InitTime  time.Duration
	VertTime  time.Duration
	EdgeTime  time.Duration
	TotalTime time.Duration
	Quality   partition.Quality
}

// solver bundles the mutable state of one run.
type solver struct {
	g   *graph.Graph
	opt Options
	p   int

	parts []int32
	sv    []int64 // exact vertex counts per part (atomic)
	se    []int64 // exact degree sums per part (atomic)

	imbV, imbE float64
	idealV     float64
}

// Partition computes a p-way partition of g with PuLP-MM.
//
//repro:deterministic
//repro:timing
func Partition(g *graph.Graph, opt Options) ([]int32, Report, error) {
	if opt.NumParts < 1 {
		return nil, Report{}, fmt.Errorf("pulp: NumParts = %d", opt.NumParts)
	}
	if int64(opt.NumParts) > g.N && g.N > 0 {
		opt.NumParts = int(g.N)
	}
	s := &solver{
		g:     g,
		opt:   opt,
		p:     opt.NumParts,
		parts: make([]int32, g.N),
		sv:    make([]int64, opt.NumParts),
		se:    make([]int64, opt.NumParts),
	}
	s.imbV = (1 + opt.VertImbalance) * float64(g.N) / float64(s.p)
	s.imbE = (1 + opt.EdgeImbalance) * float64(g.NumArcs()) / float64(s.p)
	s.idealV = float64(g.N) / float64(s.p)

	var rep Report
	start := time.Now()

	t0 := time.Now()
	s.initLP()
	rep.InitTime = time.Since(t0)

	t0 = time.Now()
	for outer := 0; outer < opt.Iouter; outer++ {
		s.vertBalance()
		s.refine(false)
	}
	rep.VertTime = time.Since(t0)

	if !opt.SingleConstraint {
		t0 = time.Now()
		for outer := 0; outer < opt.Iouter; outer++ {
			s.edgeBalance()
			s.refine(true) // refinement preserving both constraints
		}
		rep.EdgeTime = time.Since(t0)
	}

	rep.TotalTime = time.Since(start)
	rep.Quality = partition.Evaluate(g, s.parts, s.p)
	return s.parts, rep, nil
}

// threads returns the worker budget.
func (s *solver) threads() int { return par.ResolveThreads(s.opt.Threads) }

// recount rebuilds exact part tallies from assignments.
func (s *solver) recount() {
	for i := 0; i < s.p; i++ {
		s.sv[i], s.se[i] = 0, 0
	}
	for v := int64(0); v < s.g.N; v++ {
		pv := s.parts[v]
		s.sv[pv]++
		s.se[pv] += s.g.Degree(v)
	}
}

// move transfers vertex v from part x to part w, maintaining tallies.
func (s *solver) move(v int64, x, w int32) {
	atomic.AddInt64(&s.sv[x], -1)
	atomic.AddInt64(&s.sv[w], 1)
	d := s.g.Degree(v)
	atomic.AddInt64(&s.se[x], -d)
	atomic.AddInt64(&s.se[w], d)
	atomic.StoreInt32(&s.parts[v], w)
}

// loadPart reads a label with atomic semantics (threads race benignly,
// as in the original asynchronous shared-memory implementation).
func (s *solver) loadPart(v int64) int32 {
	return atomic.LoadInt32(&s.parts[int(v)])
}

// initLP assigns random parts and runs a few rounds of unconstrained
// degree-weighted label propagation, PuLP's initialization.
func (s *solver) initLP() {
	threads := s.threads()
	par.ForChunk(0, int(s.g.N), threads, func(lo, hi, tid int) {
		r := rng.NewStream(s.opt.Seed, uint64(tid))
		for v := lo; v < hi; v++ {
			s.parts[v] = int32(r.Intn(s.p))
		}
	})
	counts := make([][]float64, threads)
	for t := range counts {
		counts[t] = make([]float64, s.p)
	}
	for iter := 0; iter < s.opt.InitIters; iter++ {
		par.ForChunk(0, int(s.g.N), threads, func(lo, hi, tid int) {
			cnt := counts[tid]
			for v := lo; v < hi; v++ {
				for i := range cnt {
					cnt[i] = 0
				}
				for _, u := range s.g.Neighbors(int64(v)) {
					cnt[s.loadPart(u)] += float64(s.g.Degree(u))
				}
				x := s.loadPart(int64(v))
				w, best := x, cnt[x]
				for i := 0; i < s.p; i++ {
					if cnt[i] > best {
						best, w = cnt[i], int32(i)
					}
				}
				if w != x {
					atomic.StoreInt32(&s.parts[v], w)
				}
			}
		})
	}
	s.recount()
}

// vertBalance moves vertices from parts above the ideal size toward
// underweight parts, weighting neighbor parts by ideal/size − 1 and
// teleporting when no underweight neighbor part exists.
func (s *solver) vertBalance() {
	threads := s.threads()
	for iter := 0; iter < s.opt.Ibal; iter++ {
		par.ForChunk(0, int(s.g.N), threads, func(lo, hi, tid int) {
			cnt := make([]float64, s.p)
			for vi := lo; vi < hi; vi++ {
				v := int64(vi)
				x := s.loadPart(v)
				if float64(atomic.LoadInt64(&s.sv[x])) <= s.idealV {
					continue
				}
				for i := range cnt {
					cnt[i] = 0
				}
				for _, u := range s.g.Neighbors(v) {
					cnt[s.loadPart(u)] += float64(s.g.Degree(u))
				}
				w, best := x, 0.0
				for i := 0; i < s.p; i++ {
					size := float64(atomic.LoadInt64(&s.sv[i]))
					if size+1 > s.imbV {
						continue
					}
					if size < 1 {
						size = 1
					}
					wt := s.idealV/size - 1
					if wt < 0 {
						wt = 0
					}
					if sc := cnt[i] * wt; sc > best {
						best, w = sc, int32(i)
					}
				}
				if w == x || best <= 0 {
					w, _ = s.mostUnderweight(x)
				}
				if w != x {
					s.move(v, x, w)
				}
			}
		})
	}
}

// mostUnderweight returns the part with the highest vertex deficit
// (excluding x) that can still accept a vertex.
func (s *solver) mostUnderweight(x int32) (int32, bool) {
	w, bestW := x, 0.0
	for i := 0; i < s.p; i++ {
		if int32(i) == x {
			continue
		}
		size := float64(atomic.LoadInt64(&s.sv[i]))
		if size+1 > s.imbV {
			continue
		}
		if size < 1 {
			size = 1
		}
		if wv := s.idealV/size - 1; wv > bestW {
			bestW, w = wv, int32(i)
		}
	}
	return w, w != x
}

// refine is plurality label propagation constrained by the vertex cap,
// and additionally by the edge cap once the edge stage is active so
// refinement cannot undo edge balance.
func (s *solver) refine(enforceEdge bool) {
	threads := s.threads()
	for iter := 0; iter < s.opt.Iref; iter++ {
		par.ForChunk(0, int(s.g.N), threads, func(lo, hi, tid int) {
			cnt := make([]int64, s.p)
			for vi := lo; vi < hi; vi++ {
				v := int64(vi)
				for i := range cnt {
					cnt[i] = 0
				}
				for _, u := range s.g.Neighbors(v) {
					cnt[s.loadPart(u)]++
				}
				x := s.loadPart(v)
				dv := float64(s.g.Degree(v))
				w, best := x, cnt[x]
				for i := 0; i < s.p; i++ {
					if cnt[i] <= best {
						continue
					}
					if float64(atomic.LoadInt64(&s.sv[i]))+1 > s.imbV {
						continue
					}
					if enforceEdge && float64(atomic.LoadInt64(&s.se[i]))+dv > s.imbE {
						continue
					}
					best, w = cnt[i], int32(i)
				}
				if w != x {
					s.move(v, x, w)
				}
			}
		})
	}
}

// edgeBalance shifts degree weight out of parts exceeding the edge
// target into edge-underweight parts, respecting the vertex cap. The
// vertex room those parts have left is spent only on vertices heavy
// enough to matter (worthMoving), and light vertices leave parts that
// are vertex-full but edge-light to free room for heavier ones
// (makeRoom).
func (s *solver) edgeBalance() {
	threads := s.threads()
	for iter := 0; iter < s.opt.Ibal; iter++ {
		par.ForChunk(0, int(s.g.N), threads, func(lo, hi, tid int) {
			cnt := make([]float64, s.p)
			for vi := lo; vi < hi; vi++ {
				v := int64(vi)
				x := s.loadPart(v)
				dv := float64(s.g.Degree(v))
				if ex := float64(atomic.LoadInt64(&s.se[x])); ex <= s.imbE {
					if w := s.makeRoom(x, ex, dv); w != x {
						s.move(v, x, w)
					}
					continue
				}
				if !s.worthMoving(dv) {
					continue
				}
				for i := range cnt {
					cnt[i] = 0
				}
				for _, u := range s.g.Neighbors(v) {
					cnt[s.loadPart(u)] += float64(s.g.Degree(u))
				}
				w, best := x, 0.0
				for i := 0; i < s.p; i++ {
					ei := float64(atomic.LoadInt64(&s.se[i]))
					if ei+dv > s.imbE || float64(atomic.LoadInt64(&s.sv[i]))+1 > s.imbV {
						continue
					}
					if ei < 1 {
						ei = 1
					}
					wt := s.imbE/ei - 1
					if wt < 0 {
						wt = 0
					}
					if sc := (cnt[i] + 1) * wt; sc > best {
						best, w = sc, int32(i)
					}
				}
				if w != x && best > 0 {
					s.move(v, x, w)
				}
			}
		})
	}
}

// worthMoving reports whether a vertex of degree dv may spend one unit
// of the vertex slack left in edge-underweight parts. The slack is
// scarce: once those parts reach the vertex cap, edge balancing stalls.
// A vertex qualifies when it carries at least the average degree the
// remaining slack must absorb to bring every part under the edge cap,
// so low-degree vertices cannot exhaust the slack before the hubs that
// carry the excess are visited, whatever order the workers reach them.
func (s *solver) worthMoving(dv float64) bool {
	excess, slack := 0.0, 0.0
	for i := 0; i < s.p; i++ {
		ei := float64(atomic.LoadInt64(&s.se[i]))
		if ei > s.imbE {
			excess += ei - s.imbE
			continue
		}
		if room := s.imbV - float64(atomic.LoadInt64(&s.sv[i])); room >= 1 {
			slack += room
		}
	}
	return dv*slack >= excess
}

// makeRoom picks a part to take a vertex of degree dv out of part x,
// which is within the edge cap (ex edges) but at the vertex cap, or
// returns x to stay. Such a part can absorb edges only in exchange for
// vertices, so a light vertex leaves for an edge-overweight part with
// vertex room whose vertices are on average at least twice as heavy
// and would fit in x's edge room; that part can then shed one of them
// into the freed slot. Among eligible parts the one furthest over the
// edge cap wins.
func (s *solver) makeRoom(x int32, ex, dv float64) int32 {
	if float64(atomic.LoadInt64(&s.sv[x]))+1 <= s.imbV {
		return x
	}
	w, bestEx := x, 0.0
	for i := 0; i < s.p; i++ {
		ei := float64(atomic.LoadInt64(&s.se[i]))
		vi := float64(atomic.LoadInt64(&s.sv[i]))
		if ei <= s.imbE || vi+1 > s.imbV || vi < 1 {
			continue
		}
		avg := ei / vi
		if 2*dv > avg || ex+avg > s.imbE {
			continue
		}
		if over := ei - s.imbE; over > bestEx {
			bestEx, w = over, int32(i)
		}
	}
	return w
}
