package analytics

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// Multi-wave Harmonic Centrality: the batched wave engine must be a
// pure scheduling change — per-vertex centralities bit-identical to
// the sequential sync-mode loop at every pipeline depth, on complete
// and incomplete rank neighborhoods alike, with every other analytic
// unchanged by the depth — while actually driving the deeper pipeline
// (2 rounds in flight per wave) and issuing fewer reductions than the
// sequential loop.

// hcReference computes the sync-mode (sequential-loop) centralities.
func hcReference(dg *dgraph.Graph, srcs []int64) ([]float64, float64) {
	dg.SetAsyncExchange(false)
	hc, res := HarmonicCentrality(dg, srcs)
	return hc, res.Value
}

// hcSources derives n in-range sources with a few duplicates of
// structure (hashed like RunAll, plus the first vertices) — enough to
// exercise partial final batches when n is not a wave multiple.
func hcSources(n int, nGlobal int64) []int64 {
	srcs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		srcs = append(srcs, (int64(i)*2654435761)%nGlobal)
	}
	return srcs
}

func TestHCWavesBitIdenticalAcrossDepthsAndModes(t *testing.T) {
	g := gen.ChungLu(1<<10, 1<<13, 2.2, 9)
	const nsrc = 9 // not a multiple of any tested wave count
	mpi.Run(4, func(c *mpi.Comm) {
		build := func() *dgraph.Graph {
			dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
				dgraph.HashDist{P: c.Size(), Seed: 7})
			if err != nil {
				// Errorf, not Fatalf: FailNow must only run on the test
				// goroutine, and a Goexit here would strand the sibling
				// ranks inside the construction collective.
				t.Errorf("rank %d: %v", c.Rank(), err)
				return nil
			}
			return dg
		}
		srcs := hcSources(nsrc, g.N)
		ref := build()
		if ref == nil {
			return
		}
		want, wantMax := hcReference(ref, srcs)
		wantAll := RunAll(ref, 5)
		ref.Close()

		for _, depth := range []int{2, 3, 4, 8} {
			dg := build()
			if dg == nil {
				return
			}
			dg.SetPipeDepth(depth)
			dg.SetAsyncExchange(true)
			wantWaves := depth / 2
			if wantWaves < 1 {
				wantWaves = 1
			}
			if got := HCWaves(dg); got != wantWaves {
				t.Errorf("rank %d: HCWaves at depth %d = %d, want %d", c.Rank(), depth, got, wantWaves)
			}
			hc, res := HarmonicCentrality(dg, srcs)
			if res.Value != wantMax {
				t.Errorf("rank %d depth %d: max centrality %v, want %v (must be bit-identical)",
					c.Rank(), depth, res.Value, wantMax)
			}
			if res.Iterations != nsrc {
				t.Errorf("rank %d depth %d: Iterations = %d, want %d sources", c.Rank(), depth, res.Iterations, nsrc)
			}
			for v := 0; v < dg.NLocal; v++ {
				if hc[v] != want[v] {
					t.Errorf("rank %d depth %d: hc(gid %d) = %v, want %v (must be bit-identical)",
						c.Rank(), depth, dg.L2G[v], hc[v], want[v])
					break
				}
			}
			// The wave engine must actually fill the deeper pipeline:
			// once every wave of a full batch has both its push and its
			// refresh in flight, the high-water mark is 2 rounds per
			// wave.
			if got, want := dg.AsyncExchanger().MaxDepth, 2*wantWaves; got != want {
				t.Errorf("rank %d depth %d: pipeline high-water mark %d, want %d (waves not overlapped)",
					c.Rank(), depth, got, want)
			}
			// A deeper pipeline only changes HC's wave schedule: every
			// analytic's value and iteration count stays the sync one.
			for i, got := range RunAll(dg, 5) {
				if w := wantAll[i]; got.Name != w.Name || got.Value != w.Value || got.Iterations != w.Iterations {
					t.Errorf("rank %d depth %d: %s = (%v, %d iters), want (%v, %d iters)",
						c.Rank(), depth, got.Name, got.Value, got.Iterations, w.Value, w.Iterations)
				}
			}
			dg.Close()
		}
	})
}

// On an incomplete rank neighborhood the waves cannot piggyback their
// termination counters and each falls back to its own exact Allreduce
// on its private round schedule — results still bit-identical.
func TestHCWavesIncompleteNeighborhoodAcrossDepths(t *testing.T) {
	g := gen.Grid3D(8, 8, 8)
	mpi.Run(3, func(c *mpi.Comm) {
		build := func() *dgraph.Graph {
			dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
				dgraph.BlockDist{N: g.N, P: c.Size()})
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return nil
			}
			return dg
		}
		probe := build()
		if probe == nil {
			return
		}
		if probe.AsyncExchanger().NeighborhoodComplete() { // collective
			t.Errorf("blocked 3D grid on 3 ranks should have an incomplete rank neighborhood")
			probe.Close()
			return
		}
		probe.Close()
		srcs := hcSources(5, g.N)
		ref := build()
		if ref == nil {
			return
		}
		want, wantMax := hcReference(ref, srcs)
		ref.Close()
		for _, depth := range []int{2, 4} {
			dg := build()
			if dg == nil {
				return
			}
			dg.SetPipeDepth(depth)
			dg.SetAsyncExchange(true)
			hc, res := HarmonicCentrality(dg, srcs)
			if res.Value != wantMax {
				t.Errorf("rank %d depth %d: max centrality %v, want %v",
					c.Rank(), depth, res.Value, wantMax)
			}
			for v := 0; v < dg.NLocal; v++ {
				if hc[v] != want[v] {
					t.Errorf("rank %d depth %d: hc(gid %d) = %v, want %v",
						c.Rank(), depth, dg.L2G[v], hc[v], want[v])
					break
				}
			}
			dg.Close()
		}
	})
}

// The multi-wave engine must beat the sequential loop on reductions:
// on a complete neighborhood its per-source cost is zero (no
// eccentricity Allreduce, termination piggybacked), leaving only the
// final max-centrality reduction.
func TestHCWavesFewerReductions(t *testing.T) {
	g := gen.ChungLu(1<<9, 1<<12, 2.2, 5)
	mpi.Run(4, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()),
			dgraph.HashDist{P: c.Size(), Seed: 7})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		srcs := hcSources(8, g.N)
		count := func(async bool) int64 {
			dg.SetAsyncExchange(async)
			c.ResetStats()
			before := c.Stats().ReductionOps
			HarmonicCentrality(dg, srcs)
			return c.Stats().ReductionOps - before
		}
		syncRed := count(false)
		asyncRed := count(true)
		dg.Close()
		if c.Rank() == 0 {
			if asyncRed >= syncRed {
				t.Errorf("multi-wave HC performed %d reductions, sequential loop %d (want strictly fewer)",
					asyncRed, syncRed)
			}
			// Complete neighborhood: only the final max-centrality
			// Allreduce remains, independent of the source count.
			if asyncRed > 1 {
				t.Errorf("multi-wave HC performed %d reductions on a complete neighborhood, want <= 1", asyncRed)
			}
		}
	})
}
