package spmv

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// serialPower computes k normalized power iterations of the adjacency
// matrix in shared memory as the reference.
func serialPower(g *graph.Graph, k int) []float64 {
	x := make([]float64, g.N)
	y := make([]float64, g.N)
	for i := range x {
		x[i] = 1.0 / float64(g.N)
	}
	for it := 0; it < k; it++ {
		var norm float64
		for u := int64(0); u < g.N; u++ {
			var sum float64
			for _, v := range g.Neighbors(u) {
				sum += x[v]
			}
			y[u] = sum
			if a := math.Abs(sum); a > norm {
				norm = a
			}
		}
		if norm == 0 {
			norm = 1
		}
		for i := range x {
			x[i] = y[i] / norm
		}
	}
	return x
}

func TestSpMVMatchesSerialBothLayouts(t *testing.T) {
	g := gen.ERAvgDeg(512, 8, 5).MustBuild()
	const iters = 10
	ref := serialPower(g, iters)
	var refNorm float64
	for _, v := range ref {
		if a := math.Abs(v); a > refNorm {
			refNorm = a
		}
	}
	for _, layout := range []Layout{OneD, TwoD} {
		for _, p := range []int{1, 4, 6} {
			parts := partition.VertexBlock(g, p)
			mpi.Run(p, func(c *mpi.Comm) {
				res, err := Run(c, g, parts, Options{Layout: layout, Iterations: iters})
				if err != nil {
					t.Errorf("%v p=%d: %v", layout, p, err)
					return
				}
				if math.Abs(res.Checksum-refNorm) > 1e-9 {
					t.Errorf("%v p=%d: checksum %v, want %v", layout, p, res.Checksum, refNorm)
				}
			})
		}
	}
}

func TestLayoutsAgreeWithEachOther(t *testing.T) {
	g := gen.RMAT(9, 8, 7).MustBuild()
	const p = 4
	parts := partition.Random(g, p, 3)
	var cs [2]float64
	for li, layout := range []Layout{OneD, TwoD} {
		mpi.Run(p, func(c *mpi.Comm) {
			res, err := Run(c, g, parts, Options{Layout: layout, Iterations: 5})
			if err != nil {
				t.Fatalf("%v: %v", layout, err)
			}
			if c.Rank() == 0 {
				cs[li] = res.Checksum
			}
		})
	}
	if math.Abs(cs[0]-cs[1]) > 1e-9 {
		t.Fatalf("1D checksum %v != 2D checksum %v", cs[0], cs[1])
	}
}

func Test2DReducesCommOnSkewedGraph(t *testing.T) {
	// The Table III effect: on a skewed graph with a random vertex
	// partition, the 2D layout's total communication volume is lower
	// than 1D's.
	g := gen.ChungLu(4096, 32768, 2.0, 9).MustBuild()
	const p = 16
	parts := partition.Random(g, p, 5)
	var vol [2]int64
	for li, layout := range []Layout{OneD, TwoD} {
		mpi.Run(p, func(c *mpi.Comm) {
			res, err := Run(c, g, parts, Options{Layout: layout, Iterations: 3})
			if err != nil {
				t.Fatalf("%v: %v", layout, err)
			}
			v := mpi.AllreduceScalar(c, res.CommVolume, mpi.Sum)
			if c.Rank() == 0 {
				vol[li] = v
			}
		})
	}
	if vol[1] >= vol[0] {
		t.Errorf("2D volume %d not below 1D volume %d on skewed graph", vol[1], vol[0])
	}
}

func TestGoodPartitionReducesCommOver1DRandom(t *testing.T) {
	// A locality-preserving partition must communicate less than a
	// random one under the same 1D layout (the premise of Table III).
	g := gen.Grid3D(12, 12, 12).MustBuild()
	const p = 8
	var vol [2]int64
	for pi, parts := range [][]int32{partition.Random(g, p, 7), partition.VertexBlock(g, p)} {
		mpi.Run(p, func(c *mpi.Comm) {
			res, err := Run(c, g, parts, Options{Layout: OneD, Iterations: 3})
			if err != nil {
				t.Fatalf("%v", err)
			}
			v := mpi.AllreduceScalar(c, res.CommVolume, mpi.Sum)
			if c.Rank() == 0 {
				vol[pi] = v
			}
		})
	}
	if vol[1] >= vol[0] {
		t.Errorf("block partition volume %d not below random %d", vol[1], vol[0])
	}
}

func TestGridDims(t *testing.T) {
	cases := []struct{ p, pr, pc int }{
		{1, 1, 1}, {4, 2, 2}, {6, 2, 3}, {16, 4, 4}, {7, 1, 7}, {12, 3, 4},
	}
	for _, c := range cases {
		pr, pc := gridDims(c.p)
		if pr*pc != c.p {
			t.Errorf("gridDims(%d) = %d x %d", c.p, pr, pc)
		}
		if pr != c.pr || pc != c.pc {
			t.Errorf("gridDims(%d) = (%d,%d), want (%d,%d)", c.p, pr, pc, c.pr, c.pc)
		}
	}
}

func TestRejectsBadPartition(t *testing.T) {
	g := gen.ER(64, 128, 1).MustBuild()
	parts := make([]int32, g.N)
	parts[0] = 99
	mpi.Run(2, func(c *mpi.Comm) {
		if _, err := Run(c, g, parts, Options{Layout: OneD, Iterations: 1}); err == nil {
			t.Error("expected error for out-of-range part id")
		}
		if _, err := Run(c, g, make([]int32, 5), Options{Layout: OneD, Iterations: 1}); err == nil {
			t.Error("expected error for a short partition")
		}
	})
}

func BenchmarkSpMV1D8Ranks(b *testing.B) {
	g := gen.RMAT(12, 16, 1).MustBuild()
	parts := partition.Random(g, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpi.Run(8, func(c *mpi.Comm) {
			if _, err := Run(c, g, parts, Options{Layout: OneD, Iterations: 10}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// The async engine's ∞-norm piggyback: on a complete expand
// neighborhood the per-iteration norm reduction rides the expand
// messages, so the run's Allreduce count is a small constant
// independent of the iteration count — while the checksum stays
// bit-identical to the synchronous engine. The 2D layout confines each
// rank's expand traffic to its processor column, so its neighborhood
// is structurally incomplete and it must take the exact per-iteration
// fallback instead (same checksum either way).
func TestNormPiggybackZeroPerIterationAllreduce(t *testing.T) {
	g := gen.ChungLu(2048, 16384, 2.0, 9).MustBuild()
	const p = 4
	parts := partition.Random(g, p, 5)
	for _, layout := range []Layout{OneD, TwoD} {
		for _, iters := range []int{5, 20} {
			var syncCS, asyncCS float64
			var syncRed, asyncRed int64
			var piggy bool
			for _, async := range []bool{false, true} {
				mpi.Run(p, func(c *mpi.Comm) {
					res, err := Run(c, g, parts, Options{Layout: layout, Iterations: iters, Async: async})
					if err != nil {
						t.Errorf("%v async=%v: %v", layout, async, err)
						return
					}
					if c.Rank() == 0 {
						if async {
							asyncCS, asyncRed, piggy = res.Checksum, res.Reductions, res.NormPiggyback
						} else {
							syncCS, syncRed = res.Checksum, res.Reductions
						}
					}
				})
			}
			if syncCS != asyncCS {
				t.Errorf("%v iters=%d: checksum %v (sync) vs %v (async), must be bit-identical", layout, iters, syncCS, asyncCS)
			}
			if want := int64(iters + 1); syncRed != want {
				t.Errorf("%v iters=%d: sync performed %d Allreduces, want %d", layout, iters, syncRed, want)
			}
			if layout == OneD {
				if !piggy {
					t.Fatalf("1D iters=%d: random partition on %d ranks should give a complete expand neighborhood", iters, p)
				}
				// Detection + trailing deferred normalization + checksum:
				// constant, independent of iters.
				if asyncRed != 3 {
					t.Errorf("1D iters=%d: async performed %d Allreduces, want 3 (norm must ride the expand messages)", iters, asyncRed)
				}
			} else {
				if piggy {
					t.Fatalf("2D iters=%d: column-confined expand traffic cannot form a complete neighborhood", iters)
				}
				if want := int64(iters + 2); asyncRed != want {
					t.Errorf("2D iters=%d: async fallback performed %d Allreduces, want %d", iters, asyncRed, want)
				}
			}
		}
	}
}

// On an incomplete expand neighborhood (a blocked mesh where distant
// slabs never exchange) the piggyback must detect infeasibility and
// fall back to the exact per-iteration Allreduce — still bit-identical
// to sync.
func TestNormPiggybackIncompleteFallback(t *testing.T) {
	g := gen.Grid3D(10, 10, 10).MustBuild()
	const p = 5
	parts := partition.VertexBlock(g, p)
	const iters = 6
	var syncCS, asyncCS float64
	var asyncRed int64
	var piggy bool
	for _, async := range []bool{false, true} {
		mpi.Run(p, func(c *mpi.Comm) {
			res, err := Run(c, g, parts, Options{Layout: OneD, Iterations: iters, Async: async})
			if err != nil {
				t.Errorf("async=%v: %v", async, err)
				return
			}
			if c.Rank() == 0 {
				if async {
					asyncCS, asyncRed, piggy = res.Checksum, res.Reductions, res.NormPiggyback
				} else {
					syncCS = res.Checksum
				}
			}
		})
	}
	if piggy {
		t.Fatalf("blocked 3D grid on %d ranks should have an incomplete expand neighborhood", p)
	}
	if syncCS != asyncCS {
		t.Errorf("checksum %v (sync) vs %v (async fallback), must be bit-identical", syncCS, asyncCS)
	}
	// Detection + one norm per iteration + checksum.
	if want := int64(iters + 2); asyncRed != want {
		t.Errorf("async fallback performed %d Allreduces, want %d", asyncRed, want)
	}
}
