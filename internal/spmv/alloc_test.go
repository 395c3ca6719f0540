package spmv

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// Steady-state allocation discipline of the async engine: after
// warmup, a multiply must not touch the heap — the per-peer staging
// words, the fold decode buffer and the mpi transfer-buffer pool absorb
// every byte. Every rank runs the same multiplies; rank 0 asserts
// testing.AllocsPerRun == 0, and since the sibling ranks allocate into
// the same process-wide counter the assertion covers all ranks at once.
func TestAsyncMultiplySteadyStateAllocFree(t *testing.T) {
	g := gen.ERAvgDeg(512, 8, 5).MustBuild()
	const warmup, measured = 12, 40
	paths := map[bool]bool{} // norm piggyback on/off, both must run
	for _, p := range []int{2, 4} {
		parts := partition.VertexBlock(g, p)
		for _, layout := range []Layout{OneD, TwoD} {
			what := fmt.Sprintf("p=%d %v", p, layout)
			mpi.Run(p, func(c *mpi.Comm) {
				m, err := build(c, g, parts, layout)
				if err != nil {
					t.Errorf("%s rank %d: %v", what, c.Rank(), err)
					return
				}
				// The async set-up Run performs before its first multiply.
				m.async = true
				m.normPiggyback = mpi.NeighborhoodComplete(c, len(m.expandIn))
				m.pendNorm = 1
				round := func() { m.multiply() }
				for i := 0; i < warmup; i++ {
					round()
				}
				c.Barrier()
				if c.Rank() != 0 {
					// AllocsPerRun calls round measured+1 times.
					for i := 0; i < measured+1; i++ {
						round()
					}
					return
				}
				paths[m.normPiggyback] = true
				if avg := testing.AllocsPerRun(measured, round); avg != 0 {
					t.Errorf("%s (piggyback %v): %.2f allocs per steady-state multiply, want 0",
						what, m.normPiggyback, avg)
				}
			})
		}
	}
	if !paths[true] || !paths[false] {
		t.Errorf("expand paths exercised %v, want both the norm piggyback and the plain expand", paths)
	}
}
