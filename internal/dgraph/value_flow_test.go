package dgraph

import (
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// pairSet collects (lid, payload) results order-insensitively.
func pairSet(lids []int32, vals []int64) [][2]int64 {
	out := make([][2]int64, len(lids))
	for i := range lids {
		out[i] = [2]int64{int64(lids[i]), vals[i]}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// The delta engine's value flows must deliver exactly what the
// synchronous Alltoallv helpers deliver, for both the owner → ghost
// direction (BeginValues/FlushValues against the bulk engine) and the
// ghost → owner direction (BeginPush/FlushPush against the bulk push).
func TestValueFlowsMatchSyncTransport(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()

		// Owner → ghost: a sparse subset of owned vertices.
		var lids []int32
		base := make([]int64, dg.NTotal())
		for i := range base {
			base[i] = -7
		}
		for v := 0; v < dg.NLocal; v++ {
			if v%3 != 0 {
				lids = append(lids, int32(v))
				base[v] = dg.L2G[v] * 31 % 1000
			}
		}
		syncVals := append([]int64(nil), base...)
		syncInt64(dg, lids, syncVals)
		asyncVals := append([]int64(nil), base...)
		payloads := make([]int64, len(lids))
		for i, lid := range lids {
			payloads[i] = asyncVals[lid]
		}
		ex := dg.AsyncExchanger()
		ex.BeginValues(lids, payloads, nil)
		outL, outP, _ := ex.FlushValues()
		for i, lid := range outL {
			asyncVals[lid] = outP[i]
		}
		for i := range syncVals {
			if syncVals[i] != asyncVals[i] {
				t.Errorf("rank %d: value round diverges at lid %d: sync %d async %d",
					c.Rank(), i, syncVals[i], asyncVals[i])
				return
			}
		}

		// Ghost → owner: a subset of ghosts with synthetic payloads.
		var ghosts []int32
		payloads = payloads[:0]
		for i := 0; i < dg.NGhost; i++ {
			if i%2 == 0 {
				lid := int32(dg.NLocal + i)
				ghosts = append(ghosts, lid)
				payloads = append(payloads, dg.L2G[lid]*13%997)
			}
		}
		sL, sP := syncPush(dg, ghosts, payloads)
		ex.BeginPush(ghosts, payloads, nil)
		aL, aP, _ := ex.FlushPush()
		sp, ap := pairSet(sL, sP), pairSet(aL, aP)
		if len(sp) != len(ap) {
			t.Errorf("rank %d: push round delivered %d pairs async, %d sync", c.Rank(), len(ap), len(sp))
			return
		}
		for i := range sp {
			if sp[i] != ap[i] {
				t.Errorf("rank %d: push pair %d: sync %v async %v", c.Rank(), i, sp[i], ap[i])
				return
			}
		}
	})
}

// Float payloads must travel bit-exactly through both engines: the
// delta engine's value flow carries math.Float64bits words and must
// land what the bulk engine lands.
func TestValueFlowFloat64BitExact(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	mpi.Run(3, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 2})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		bv := dg.BoundaryVertices()
		mk := func() []float64 {
			vals := make([]float64, dg.NTotal())
			for v := 0; v < dg.NLocal; v++ {
				vals[v] = 1.0 / float64(dg.L2G[v]+3)
			}
			return vals
		}
		syncVals, asyncVals := mk(), mk()
		syncFloat64(dg, bv, syncVals)
		payloads := make([]int64, len(bv))
		for i, lid := range bv {
			payloads[i] = int64(math.Float64bits(asyncVals[lid]))
		}
		ex := dg.AsyncExchanger()
		ex.BeginValues(bv, payloads, nil)
		outL, outP, _ := ex.FlushValues()
		for i, lid := range outL {
			asyncVals[lid] = math.Float64frombits(uint64(outP[i]))
		}
		for i := range syncVals {
			if syncVals[i] != asyncVals[i] {
				t.Errorf("rank %d: float payload diverges at lid %d: %v vs %v",
					c.Rank(), i, syncVals[i], asyncVals[i])
				return
			}
		}
	})
}

// Shipping the full boundary in lid order must trigger the dense
// encoding: one header plus one payload per shared-list entry, against
// the synchronous transport's two elements per (vertex, destination).
func TestValueFlowDenseEncodingVolume(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		bv := dg.BoundaryVertices()
		vals := make([]int64, dg.NTotal())
		for v := range vals {
			vals[v] = int64(v)
		}

		c.ResetStats()
		syncInt64(dg, bv, vals)
		syncSent := c.Stats().ElemsSent

		ex := dg.AsyncExchanger()
		c.ResetStats()
		payloads := make([]int64, len(bv))
		for i, lid := range bv {
			payloads[i] = vals[lid]
		}
		ex.BeginValues(bv, payloads, nil)
		ex.FlushValues()
		asyncSent := c.Stats().ElemsSent

		var want int64
		for _, r := range ex.NeighborRanks() {
			want += 1 + int64(len(ex.SharedSendGIDs(int(r))))
		}
		if asyncSent != want {
			t.Errorf("rank %d: dense value flow sent %d elements, want %d", c.Rank(), asyncSent, want)
		}
		if asyncSent >= syncSent {
			t.Errorf("rank %d: async value flow sent %d, sync %d", c.Rank(), asyncSent, syncSent)
		}
	})
}

// FlushTally must hand back the element-wise sum of this rank's tally
// and every neighbor's — on a complete rank neighborhood, the sum over
// all ranks, with no Allreduce.
func TestFlushTallySumsNeighborTallies(t *testing.T) {
	g := gen.ER(300, 1500, 11)
	const ranks = 4
	mpi.Run(ranks, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 5})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		ex := dg.AsyncExchanger()
		if got := len(ex.NeighborRanks()); got != ranks-1 {
			t.Errorf("rank %d: %d neighbors, want complete (%d)", c.Rank(), got, ranks-1)
			return
		}
		me := int64(c.Rank())
		ex.BeginTally(3)
		c.ResetStats()
		_, tr := ex.FlushTally(nil, []int64{me, me * 10, 1})
		wantAll := int64(ranks * (ranks - 1) / 2) // 0+1+2+3
		want := [3]int64{wantAll, wantAll * 10, ranks}
		if sum := [3]int64{tr.Sum(0), tr.Sum(1), tr.Sum(2)}; sum != want {
			t.Errorf("rank %d: tally sum %v, want %v", c.Rank(), sum, want)
		}
		if red := c.Stats().ReductionOps; red != 0 {
			t.Errorf("rank %d: piggybacked tally cost %d Allreduces", c.Rank(), red)
		}
	})
}
