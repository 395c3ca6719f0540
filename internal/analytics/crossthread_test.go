// Cross-thread determinism: every analytic must produce bit-identical
// results at every intra-rank thread count, in both exchange modes, on
// both rank substrates. This is the contract behind the threads-per-rank
// knob — the parallel sweeps are phase-Jacobi with tid-ordered merges,
// so chunk boundaries can never change a value — and the test is the
// acceptance gate for it: threads {1,2,4,8} x {sync,async} x
// {proc,socket} all compared against the serial synchronous reference.
//
// The file is an external test package so it can use internal/mpitest's
// transport factories (mpitest imports the repro facade, which imports
// analytics — an in-package test would cycle).
package analytics_test

import (
	"fmt"
	"testing"

	"repro/internal/analytics"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/mpitest"
)

const ctRanks = 4

// ctGen is the fixed workload: small enough that the full matrix runs
// in seconds, irregular enough that every rank owns boundary AND
// interior vertices (both sweep phases exercised).
func ctGen() *gen.Generator { return gen.ChungLu(1<<10, 1<<13, 2.2, 9) }

// ctRank is one rank's copied analytic outputs.
type ctRank struct {
	bfs, wcc, core, lp []int64
	pr, hc             []float64
	ecc                int64
	prNorm, hcMax      float64
}

// ctRun executes the six analytics on one world and copies every
// rank's local results out (ranks share this process's memory on both
// factories, so indexing by rank is race-free).
func ctRun(t *testing.T, factory mpitest.Factory, threads int, async bool) []ctRank {
	t.Helper()
	g := ctGen()
	out := make([]ctRank, ctRanks)
	mpi.RunWorld(factory(t, ctRanks), threads, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 7})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		dg.SetAsyncExchange(async)
		r := &ctRank{}
		var lv []int64
		lv, r.ecc = analytics.BFS(dg, 0)
		r.bfs = append(r.bfs, lv[:dg.NLocal]...)
		pr, prRes := analytics.PageRank(dg, 10, 0.85)
		r.pr, r.prNorm = append(r.pr, pr...), prRes.Value
		wcc, _ := analytics.WCC(dg)
		r.wcc = append(r.wcc, wcc...)
		core, _ := analytics.KCore(dg, 20)
		r.core = append(r.core, core...)
		lp, _ := analytics.LabelProp(dg, 8)
		r.lp = append(r.lp, lp...)
		hc, hcRes := analytics.HarmonicCentrality(dg, analytics.HCSourceList(4, g.N))
		r.hc, r.hcMax = append(r.hc, hc...), hcRes.Value
		out[c.Rank()] = *r
	})
	return out
}

// ctCompare asserts two runs are bit-identical on every rank.
func ctCompare(t *testing.T, label string, ref, got []ctRank) {
	t.Helper()
	for rank := range ref {
		a, b := &ref[rank], &got[rank]
		if a.ecc != b.ecc || a.prNorm != b.prNorm || a.hcMax != b.hcMax {
			t.Errorf("%s: rank %d scalars diverge: ecc %d/%d prNorm %v/%v hcMax %v/%v",
				label, rank, a.ecc, b.ecc, a.prNorm, b.prNorm, a.hcMax, b.hcMax)
		}
		for v := range a.bfs {
			if a.bfs[v] != b.bfs[v] || a.wcc[v] != b.wcc[v] || a.core[v] != b.core[v] || a.lp[v] != b.lp[v] {
				t.Errorf("%s: rank %d int results diverge at lid %d", label, rank, v)
				break
			}
			if a.pr[v] != b.pr[v] || a.hc[v] != b.hc[v] {
				t.Errorf("%s: rank %d float results diverge at lid %d (must be bit-identical)", label, rank, v)
				break
			}
		}
	}
}

// TestAnalyticsCrossThreadDeterminism is the full acceptance matrix.
// The serial synchronous proc run is the reference; every other
// (threads, mode, substrate) combination must reproduce it bit for
// bit — including the float analytics, whose sums fold in chunk-index
// order regardless of which worker finished first.
func TestAnalyticsCrossThreadDeterminism(t *testing.T) {
	ref := ctRun(t, mpitest.ProcFactory, 1, false)
	factories := []struct {
		name    string
		factory mpitest.Factory
	}{{"proc", mpitest.ProcFactory}, {"socket", mpitest.UnixSocketFactory}}
	threadCounts := mpitest.CrossThreadCounts(testing.Short())
	for _, nf := range factories {
		name, factory := nf.name, nf.factory
		for _, threads := range threadCounts {
			for _, async := range []bool{false, true} {
				label := fmt.Sprintf("%s/threads=%d/async=%v", name, threads, async)
				if name == "proc" && threads == 1 && !async {
					continue // the reference itself
				}
				ctCompare(t, label, ref, ctRun(t, factory, threads, async))
			}
		}
	}
}
