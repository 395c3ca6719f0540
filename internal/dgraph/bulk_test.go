package dgraph

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// syncUpdates runs one bulk-synchronous update round and returns a
// copy of the updates received for this rank's ghosts.
func syncUpdates(g *Graph, q []Update) []Update {
	out, _ := g.ExchangerFor(false).FlushTally(q, nil)
	return slices.Clone(out)
}

// syncInt64 pushes vals of the given owned vertices to the ranks
// ghosting them over one bulk value round and applies what arrives.
func syncInt64(g *Graph, lids []int32, vals []int64) {
	ex := g.ExchangerFor(false)
	payloads := make([]int64, len(lids))
	for i, lid := range lids {
		payloads[i] = vals[lid]
	}
	ex.BeginValues(lids, payloads, nil)
	outL, outP, _ := ex.FlushValues()
	for i, lid := range outL {
		vals[lid] = outP[i]
	}
}

// syncFloat64 is syncInt64 for float64 values, shipped bit-exactly.
func syncFloat64(g *Graph, lids []int32, vals []float64) {
	bits := make([]int64, len(vals))
	for i, v := range vals {
		bits[i] = int64(math.Float64bits(v))
	}
	syncInt64(g, lids, bits)
	for i, b := range bits {
		vals[i] = math.Float64frombits(uint64(b))
	}
}

// syncPush runs one bulk ghost → owner round and returns copies of the
// (owned lid, payload) pairs received.
func syncPush(g *Graph, lids []int32, payloads []int64) ([]int32, []int64) {
	ex := g.ExchangerFor(false)
	ex.BeginPush(lids, payloads, nil)
	outL, outP, _ := ex.FlushPush()
	return slices.Clone(outL), slices.Clone(outP)
}

// The bulk engine's footprint is the paper's sync baseline: building it
// costs no collective, and each round is exactly one Alltoallv plus
// one Allreduce when it carries a tally or counter — none otherwise.
func TestBulkRoundFootprint(t *testing.T) {
	g := gen.ER(200, 900, 3)
	mpi.Run(3, func(c *mpi.Comm) {
		dg, err := FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), HashDist{P: c.Size(), Seed: 2})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		defer dg.Close()
		c.ResetStats()
		ex := dg.Exchanger()
		if ex.Depth() != 1 {
			t.Errorf("bulk depth %d, want 1", ex.Depth())
		}
		check := func(what string, exchanges, reductions int64) {
			t.Helper()
			st := c.Stats()
			if st.ExchangeOps != exchanges || st.ReductionOps != reductions {
				t.Errorf("rank %d: %s: %d Alltoallv and %d Allreduce, want %d and %d",
					c.Rank(), what, st.ExchangeOps, st.ReductionOps, exchanges, reductions)
			}
			c.ResetStats()
		}
		check("construction", 0, 0)
		bv := dg.BoundaryVertices()
		payload := make([]int64, len(bv))
		ex.BeginValues(bv, payload, nil)
		ex.FlushValues()
		check("tally-free value round", 1, 0)
		ex.BeginValues(bv, payload, &Tally{Vals: []int64{1, 2}})
		_, _, tr := ex.FlushValues()
		check("value round with tally", 1, 1)
		if tr.Sum(1) != 2*int64(c.Size()) {
			t.Errorf("rank %d: tally sum %d, want %d", c.Rank(), tr.Sum(1), 2*c.Size())
		}
		ex.BeginValues(bv, payload, &Tally{Round: 2})
		_, _, tr = ex.FlushCount(int64(c.Rank()))
		check("counted round", 1, 1)
		if tr.Lag() != 0 || tr.Count() != 3 {
			t.Errorf("rank %d: count %d lag %d, want 3 and 0", c.Rank(), tr.Count(), tr.Lag())
		}
		f := 0.1 * float64(c.Rank()+1)
		ex.BeginPush(nil, nil, &Tally{Vals: []int64{int64(math.Float64bits(f))}, Float: true})
		_, _, tr = ex.FlushPush()
		check("push round with float tally", 1, 1)
		if got, want := tr.FoldFloat(0), mpi.AllreduceScalar(c, f, mpi.Sum); got != want {
			t.Errorf("rank %d: float tally %v, Allreduce %v (must be bit-identical)", c.Rank(), got, want)
		}
	})
}
