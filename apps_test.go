package repro

import (
	"testing"

	"repro/internal/analytics"
	"repro/internal/dgraph"
	"repro/internal/mpi"
)

func TestRunAnalyticsUnderAllPlacements(t *testing.T) {
	const nodes = 4
	gen := PowerLaw(1024, 8192, 2.1, 1)
	g := gen.MustBuild()
	for _, method := range []string{MethodVertexBlock, MethodEdgeBlock, MethodRandom} {
		parts, err := Partition(method, g, nodes, 1)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		rep, err := RunAnalytics(Local(nodes, 0), gen, parts, AnalyticsConfig{HCSources: 2})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		results := rep.Results
		if len(results) != 6 {
			t.Fatalf("%s: %d results", method, len(results))
		}
		// Structural results must not depend on placement.
		var wcc float64
		for _, r := range results {
			if r.Name == "WCC" {
				wcc = r.Value
			}
		}
		if wcc < 1 {
			t.Errorf("%s: WCC found %v components", method, wcc)
		}
	}
}

func TestRunAnalyticsResultsPlacementInvariant(t *testing.T) {
	const nodes = 4
	gen := RandER(512, 2048, 3)
	g := gen.MustBuild()
	var sccSizes, wccCounts []float64
	for _, method := range []string{MethodVertexBlock, MethodRandom} {
		parts, _ := Partition(method, g, nodes, 1)
		rep, err := RunAnalytics(Local(nodes, 0), gen, parts, AnalyticsConfig{HCSources: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			switch r.Name {
			case "SCC":
				sccSizes = append(sccSizes, r.Value)
			case "WCC":
				wccCounts = append(wccCounts, r.Value)
			}
		}
	}
	if sccSizes[0] != sccSizes[1] {
		t.Errorf("SCC size differs across placements: %v", sccSizes)
	}
	if wccCounts[0] != wccCounts[1] {
		t.Errorf("WCC count differs across placements: %v", wccCounts)
	}
}

// The facade runs the async engine at its default pipeline depth;
// deepening the pipeline on the graph (SetPipeDepth, the only depth
// knob) must leave every analytic's value and iteration count
// unchanged on the same placement.
func TestRunAnalyticsDeepPipelineMatchesDefault(t *testing.T) {
	const nodes = 4
	gen := RandER(512, 2048, 3)
	g := gen.MustBuild()
	parts, err := Partition(MethodVertexBlock, g, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunAnalytics(Local(nodes, 0), gen, parts, AnalyticsConfig{HCSources: 5, AsyncExchange: true})
	if err != nil {
		t.Fatal(err)
	}
	var deep []AnalyticResult
	mpi.Run(nodes, func(c *mpi.Comm) {
		dg, err := dgraph.FromEdgeChunks(c, gen.N, gen.EdgesChunk(c.Rank(), c.Size()),
			dgraph.PartsDist{Parts: parts})
		if err != nil {
			// Errorf, not Fatalf: FailNow must only run on the test
			// goroutine.
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		dg.SetPipeDepth(8)
		dg.SetAsyncExchange(true)
		res := analytics.RunAll(dg, 5)
		dg.Close()
		if c.Rank() == 0 {
			deep = res
		}
	})
	if len(deep) != len(rep.Results) {
		t.Fatalf("depth 8 gave %d results, default %d", len(deep), len(rep.Results))
	}
	for i := range rep.Results {
		d, e := rep.Results[i], deep[i]
		if d.Name != e.Name || d.Value != e.Value || d.Iterations != e.Iterations {
			t.Errorf("%s: default depth (%v, %d iters) vs depth 8 (%v, %d iters)",
				d.Name, d.Value, d.Iterations, e.Value, e.Iterations)
		}
	}
}

// Both placement-taking entry points reject a placement that does not
// map every vertex to a rank of the world, before any rank spawns.
func TestRunPartsValidation(t *testing.T) {
	gen := RandER(100, 200, 1)
	g := gen.MustBuild()
	const ranks = 2
	withPart := func(pt int32) []int32 {
		parts := make([]int32, g.N)
		parts[g.N-1] = pt
		return parts
	}
	entries := []struct {
		name string
		run  func(parts []int32) error
	}{
		{"RunAnalytics", func(parts []int32) error {
			_, err := RunAnalytics(Local(ranks, 1), gen, parts, AnalyticsConfig{HCSources: 1})
			return err
		}},
		{"RunSpMV", func(parts []int32) error {
			_, err := RunSpMV(Local(ranks, 1), g, parts, SpMVConfig{Layout: Layout1D, Iterations: 1})
			return err
		}},
	}
	placements := []struct {
		name  string
		parts []int32
	}{
		{"short", make([]int32, 5)},
		{"long", make([]int32, g.N+1)},
		{"part >= size", withPart(ranks)},
		{"negative part", withPart(-1)},
	}
	for _, e := range entries {
		for _, p := range placements {
			if err := e.run(p.parts); err == nil {
				t.Errorf("%s with a %s placement: no error", e.name, p.name)
			}
		}
	}
}

// The world size bounds the placement: Local(0, …) is one rank, so an
// all-zero placement is valid and a two-rank one is not.
func TestRunAnalyticsValidation(t *testing.T) {
	gen := RandER(100, 200, 1)
	parts := make([]int32, 100)
	rep, err := RunAnalytics(Local(0, 1), gen, parts, AnalyticsConfig{HCSources: 1})
	if err != nil || len(rep.Results) != 6 {
		t.Fatalf("Local(0, 1): %d results, err %v; want 6 results", len(rep.Results), err)
	}
	parts[0] = 1
	if _, err := RunAnalytics(Local(0, 1), gen, parts, AnalyticsConfig{HCSources: 1}); err == nil {
		t.Fatal("Local(0, 1): expected rank 1 to be outside the one-rank world")
	}
}

func TestRunSpMVBothLayouts(t *testing.T) {
	g := RMAT(9, 8, 1).MustBuild()
	parts, err := Partition(MethodVertexBlock, g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var checks []float64
	for _, layout := range []string{Layout1D, Layout2D} {
		res, err := RunSpMV(Local(4, 0), g, parts, SpMVConfig{Layout: layout, Iterations: 5})
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		if res.Time <= 0 || res.CommVolume < 0 {
			t.Errorf("%s: result not populated: %+v", layout, res)
		}
		checks = append(checks, res.Checksum)
	}
	if checks[0] != checks[1] {
		t.Errorf("layout checksums differ: %v", checks)
	}
	// Fewer than one rank means one rank.
	one := make([]int32, g.N)
	cfg := SpMVConfig{Layout: Layout1D, Iterations: 5}
	want, err := RunSpMV(Local(1, 0), g, one, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{0, -1} {
		res, err := RunSpMV(Local(ranks, 0), g, one, cfg)
		if err != nil || res.Checksum != want.Checksum {
			t.Errorf("Local(%d, 0): checksum %v, err %v; want the one-rank checksum %v", ranks, res.Checksum, err, want.Checksum)
		}
	}
}

// The async SpMV engine is a pure transport change: checksums must be
// bit-identical to the synchronous engine under both layouts, while
// the sent-value volume drops (remote-only accounting plus, under 1D,
// the fully rank-local fold bypassing the transport).
func TestRunSpMVAsyncMatchesSyncChecksum(t *testing.T) {
	g := RMAT(9, 8, 1).MustBuild()
	parts, err := Partition(MethodVertexBlock, g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []string{Layout1D, Layout2D} {
		var res [2]SpMVResult
		for i, async := range []bool{false, true} {
			r, err := RunSpMV(Local(4, 0), g, parts, SpMVConfig{
				Layout: layout, Iterations: 8, AsyncExchange: async,
			})
			if err != nil {
				t.Fatalf("%s async=%v: %v", layout, async, err)
			}
			res[i] = r
		}
		if res[0].Checksum != res[1].Checksum {
			t.Errorf("%s: checksums diverge: sync %v async %v", layout, res[0].Checksum, res[1].Checksum)
		}
		if res[1].CommVolume >= res[0].CommVolume {
			t.Errorf("%s: async volume %d not below sync %d", layout, res[1].CommVolume, res[0].CommVolume)
		}
	}
}

// Analytics results must be mode-independent through the public facade.
func TestRunAnalyticsAsyncMatchesSync(t *testing.T) {
	const nodes = 4
	gen := RandER(512, 2048, 3)
	g := gen.MustBuild()
	parts, err := Partition(MethodVertexBlock, g, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]AnalyticResult
	for i, async := range []bool{false, true} {
		rep, err := RunAnalytics(Local(nodes, 0), gen, parts, AnalyticsConfig{
			HCSources: 2, AsyncExchange: async,
		})
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		runs[i] = rep.Results
	}
	for i := range runs[0] {
		s, a := runs[0][i], runs[1][i]
		if s.Name != a.Name || s.Value != a.Value || s.Iterations != a.Iterations {
			t.Errorf("%s: sync (%v, %d iters) vs async (%v, %d iters)",
				s.Name, s.Value, s.Iterations, a.Value, a.Iterations)
		}
	}
}

func TestRunSpMVUnknownLayout(t *testing.T) {
	g := RandER(64, 128, 1).MustBuild()
	parts, _ := Partition(MethodVertexBlock, g, 2, 1)
	if _, err := RunSpMV(Local(2, 0), g, parts, SpMVConfig{Layout: "3d", Iterations: 1}); err == nil {
		t.Fatal("expected unknown-layout error")
	}
}

func TestXtraPuLPMoreRanksThanVertices(t *testing.T) {
	// Some ranks own zero vertices; the collective protocol must
	// survive empty shards.
	g := RandER(6, 12, 1).MustBuild()
	parts, _, err := XtraPuLP(Local(8, 0), FromGraph(g), Config{Parts: 2, RandomDist: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(parts)) != g.N {
		t.Fatalf("%d assignments", len(parts))
	}
	for _, pt := range parts {
		if pt < 0 || pt >= 2 {
			t.Fatalf("part %d out of range", pt)
		}
	}
}

func TestXtraPuLPPartsExceedVertices(t *testing.T) {
	// p > n collapses to p = n inside the core.
	g := RandER(4, 8, 1).MustBuild()
	parts, _, err := XtraPuLP(Local(2, 0), FromGraph(g), Config{Parts: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range parts {
		if pt < 0 || pt >= 4 {
			t.Fatalf("part %d out of range after clamping", pt)
		}
	}
}

func TestXtraPuLPSeedsChangeOutcome(t *testing.T) {
	g := RMAT(10, 8, 1).MustBuild()
	a, _, _ := XtraPuLP(Local(2, 0), FromGraph(g), Config{Parts: 8, Seed: 1})
	b, _, _ := XtraPuLP(Local(2, 0), FromGraph(g), Config{Parts: 8, Seed: 2})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical partitions")
	}
}
