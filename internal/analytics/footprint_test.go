package analytics

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// footprint is one kernel run's collective footprint: the Allreduce and
// Alltoallv counts (identical on every rank) and the element volume
// summed over all ranks.
type footprint struct {
	reductions, exchanges, elems int64
}

// footprintKernels are the kernels whose footprint is pinned, in run
// order on one graph.
var footprintKernels = []struct {
	name string
	run  func(dg *dgraph.Graph, async bool)
}{
	{"PR", func(dg *dgraph.Graph, _ bool) { PageRank(dg, 10, 0.85) }},
	{"WCC", func(dg *dgraph.Graph, _ bool) { WCC(dg) }},
	{"LP", func(dg *dgraph.Graph, _ bool) { LabelProp(dg, 8) }},
	{"KC", func(dg *dgraph.Graph, _ bool) { KCore(dg, 20) }},
	{"BFS", func(dg *dgraph.Graph, _ bool) { BFS(dg, 0) }},
	{"HC", func(dg *dgraph.Graph, _ bool) { HarmonicCentrality(dg, HCSourceList(5, dg.NGlobal)) }},
	{"SCC", func(dg *dgraph.Graph, _ bool) { SCC(dg) }},
	{"Partition", func(dg *dgraph.Graph, async bool) {
		opt := core.DefaultOptions(4)
		opt.Seed = 3
		if async {
			opt.Exchange = core.ExchangeAsyncDelta
		}
		if _, _, err := core.Partition(dg, opt); err != nil {
			panic(err)
		}
	}},
}

// measureFootprints runs every pinned kernel on one graph per engine
// and returns the footprints keyed "kernel/engine". Engine selection
// (and with it the delta engine's one-time completeness detection)
// happens before the counters are reset, so it is charged to no kernel.
func measureFootprints(t *testing.T, ranks int, g *gen.Generator, dist func(c *mpi.Comm) dgraph.Distribution) map[string]footprint {
	got := map[string]footprint{}
	for _, async := range []bool{false, true} {
		engine := "sync"
		if async {
			engine = "async"
		}
		mpi.Run(ranks, func(c *mpi.Comm) {
			dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), dist(c))
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			dg.SetAsyncExchange(async)
			for _, k := range footprintKernels {
				c.ResetStats()
				k.run(dg, async)
				st := c.Stats()
				elems := mpi.AllreduceScalar(c, st.ElemsSent, mpi.Sum)
				if c.Rank() == 0 {
					got[k.name+"/"+engine] = footprint{st.ReductionOps, st.ExchangeOps, elems}
				}
			}
			dg.Close()
		})
	}
	return got
}

// checkFootprints compares measured footprints against the pinned
// table and, on any mismatch, prints the measured table in source
// form.
func checkFootprints(t *testing.T, got, want map[string]footprint) {
	t.Helper()
	bad := false
	for key, w := range want {
		if g, ok := got[key]; !ok || g != w {
			t.Errorf("%s: got %+v, want %+v", key, got[key], w)
			bad = true
		}
	}
	if len(got) != len(want) {
		t.Errorf("measured %d kernel/engine pairs, pinned %d", len(got), len(want))
		bad = true
	}
	if bad {
		var b strings.Builder
		for _, k := range footprintKernels {
			for _, e := range []string{"sync", "async"} {
				f := got[k.name+"/"+e]
				fmt.Fprintf(&b, "\t%q: {%d, %d, %d},\n", k.name+"/"+e, f.reductions, f.exchanges, f.elems)
			}
		}
		t.Logf("measured footprints:\n%s", b.String())
	}
}

// Every kernel's collective footprint is pinned per engine and per
// rank-neighbourhood shape. The analytics totals would hide a change
// that adds one collective to one kernel and removes one from another;
// the per-kernel table does not. A pinned value may only fall, and
// only for a reason recorded in CHANGES.md. PageRank's fell once, when
// it stopped shipping the last iteration's unused dangling mass and
// started reducing its norm once after the loop instead of fused into
// every iteration's reduction.
func TestKernelCollectiveFootprint(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		// The 4-rank Chung–Lu hash layout of
		// TestAnalyticsCrossModeDeterminism: every rank neighbours
		// every other.
		g := gen.ChungLu(1<<10, 1<<13, 2.2, 9)
		got := measureFootprints(t, 4, g, func(c *mpi.Comm) dgraph.Distribution {
			return dgraph.HashDist{P: c.Size(), Seed: 7}
		})
		checkFootprints(t, got, map[string]footprint{
			"PR/sync":         {11, 10, 49584},
			"PR/async":        {2, 0, 25060},
			"WCC/sync":        {5, 4, 7414},
			"WCC/async":       {1, 0, 4771},
			"LP/sync":         {6, 6, 8316},
			"LP/async":        {1, 1, 5152},
			"KC/sync":         {9, 8, 6038},
			"KC/async":        {0, 0, 4894},
			"BFS/sync":        {5, 8, 7786},
			"BFS/async":       {1, 0, 7472},
			"HC/sync":         {31, 50, 39988},
			"HC/async":        {1, 0, 37561},
			"SCC/sync":        {11, 16, 15584},
			"SCC/async":       {3, 0, 14956},
			"Partition/sync":  {108, 96, 51786},
			"Partition/async": {14, 0, 28099},
		})
	})
	t.Run("incomplete", func(t *testing.T) {
		// The 3-rank blocked grid of
		// TestAnalyticsCrossModeIncompleteNeighborhood: ranks 0 and 2
		// share no boundary.
		g := gen.Grid3D(8, 8, 8)
		got := measureFootprints(t, 3, g, func(c *mpi.Comm) dgraph.Distribution {
			return dgraph.BlockDist{N: g.N, P: c.Size()}
		})
		checkFootprints(t, got, map[string]footprint{
			"PR/sync":         {11, 10, 5153},
			"PR/async":        {11, 0, 2633},
			"WCC/sync":        {21, 20, 5179},
			"WCC/async":       {21, 0, 3533},
			"LP/sync":         {9, 9, 4059},
			"LP/async":        {9, 1, 2273},
			"KC/sync":         {11, 10, 1313},
			"KC/async":        {11, 0, 1032},
			"BFS/sync":        {23, 44, 837},
			"BFS/async":       {23, 0, 753},
			"HC/sync":         {92, 172, 4188},
			"HC/async":        {87, 0, 3686},
			"SCC/sync":        {41, 76, 1665},
			"SCC/async":       {41, 0, 1467},
			"Partition/sync":  {115, 103, 5627},
			"Partition/async": {115, 0, 4149},
		})
	})
}
