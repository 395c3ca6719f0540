package repro

import (
	"path/filepath"
	"testing"
)

func TestXtraPuLPFacade(t *testing.T) {
	g := RMAT(10, 8, 1).MustBuild()
	parts, rep, err := XtraPuLP(Local(4, 0), FromGraph(g), Config{Parts: 8, RandomDist: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(parts)) != g.N {
		t.Fatalf("got %d assignments for %d vertices", len(parts), g.N)
	}
	q := Evaluate(g, parts, 8)
	if q.VertexImbalance > 1.15 {
		t.Errorf("vertex imbalance %.3f", q.VertexImbalance)
	}
	if rep.TotalTime <= 0 || rep.CommVolume <= 0 {
		t.Errorf("report not populated: %+v", rep)
	}
	if rep.Quality.CutEdges != q.CutEdges {
		t.Errorf("report cut %d != evaluated %d", rep.Quality.CutEdges, q.CutEdges)
	}
}

func TestXtraPuLPFromGeneratorNeedsNoSharedGraph(t *testing.T) {
	gen := RandHD(4096, 8, 3)
	parts, _, err := XtraPuLP(Local(4, 0), gen, Config{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(parts)) != gen.N {
		t.Fatalf("got %d assignments", len(parts))
	}
}

func TestPartitionAllMethods(t *testing.T) {
	g := RMAT(9, 8, 5).MustBuild()
	const p = 4
	for _, m := range Methods() {
		parts, err := Partition(m, g, p, 7)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if int64(len(parts)) != g.N {
			t.Fatalf("%s: %d assignments", m, len(parts))
		}
		for v, pt := range parts {
			if pt < 0 || int(pt) >= p {
				t.Fatalf("%s: vertex %d part %d", m, v, pt)
			}
		}
	}
}

func TestPartitionUnknownMethod(t *testing.T) {
	g := RandER(64, 128, 1).MustBuild()
	if _, err := Partition("bogus", g, 2, 1); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestConfigValidation(t *testing.T) {
	g := RandER(64, 128, 1).MustBuild()
	if _, _, err := XtraPuLP(Local(1, 0), FromGraph(g), Config{Parts: 0}); err == nil {
		t.Fatal("expected error for Parts=0")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := Mesh3D(4, 4, 4).MustBuild()
	path := filepath.Join(t.TempDir(), "mesh.bin")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.NumArcs() != g.NumArcs() {
		t.Fatal("round trip mismatch")
	}
}

// The asynchronous delta exchange must be a pure transport change: for
// fixed seeds it yields exactly the partition (and therefore exactly
// the Quality metrics) of the bulk-synchronous path on every graph
// class and rank count, while sending strictly fewer elements whenever
// rank boundaries exist.
func TestAsyncDeltaExchangeMatchesSyncDeterministically(t *testing.T) {
	gens := []*Generator{
		RMAT(10, 8, 1),
		RandER(1024, 4096, 2),
		Mesh3D(10, 10, 10),
	}
	for _, gn := range gens {
		for _, ranks := range []int{1, 2, 3, 4, 8} {
			// One thread per rank: the partitioner's balance sweeps read
			// live atomic tallies, so bit-equality across modes is only
			// promised at one thread.
			w := Local(ranks, 1)
			base := Config{Parts: 8, RandomDist: true, Seed: 7}
			sparts, srep, err := XtraPuLP(w, gn, base)
			if err != nil {
				t.Fatalf("%s ranks=%d sync: %v", gn.Name, ranks, err)
			}
			async := base
			async.AsyncExchange = true
			aparts, arep, err := XtraPuLP(w, gn, async)
			if err != nil {
				t.Fatalf("%s ranks=%d async: %v", gn.Name, ranks, err)
			}
			for v := range sparts {
				if sparts[v] != aparts[v] {
					t.Fatalf("%s ranks=%d: partitions diverge at vertex %d: sync %d, async %d",
						gn.Name, ranks, v, sparts[v], aparts[v])
				}
			}
			sq, aq := srep.Quality, arep.Quality
			if sq.CutEdges != aq.CutEdges || sq.MaxPartCut != aq.MaxPartCut ||
				sq.EdgeCutRatio != aq.EdgeCutRatio || sq.VertexImbalance != aq.VertexImbalance ||
				sq.EdgeImbalance != aq.EdgeImbalance {
				t.Fatalf("%s ranks=%d: quality diverges: sync %+v async %+v", gn.Name, ranks, sq, aq)
			}
			// Async sends strictly less at every rank count: with
			// boundaries it ships packed deltas instead of (gid, value)
			// pairs, and even without them the piggybacked tallies
			// retire the per-iteration settle reductions sync pays.
			if arep.ExchangeVolume >= srep.ExchangeVolume {
				t.Errorf("%s ranks=%d: async exchange volume %d not below sync %d",
					gn.Name, ranks, arep.ExchangeVolume, srep.ExchangeVolume)
			}
			if srep.ReductionOps <= arep.ReductionOps {
				t.Errorf("%s ranks=%d: async reductions %d not below sync %d",
					gn.Name, ranks, arep.ReductionOps, srep.ReductionOps)
			}
		}
	}
}

func TestXtraPuLPQualityBeatsRandomOnAllClasses(t *testing.T) {
	gens := []*Generator{
		RMAT(10, 8, 1),
		RandER(1024, 4096, 2),
		RandHD(1024, 8, 3),
		Mesh3D(10, 10, 10),
		SmallWorld(1024, 8, 0.05, 4),
		PowerLaw(1024, 4096, 2.2, 5),
	}
	const p = 8
	for _, gn := range gens {
		g := gn.MustBuild()
		parts, _, err := XtraPuLP(Local(2, 0), gn, Config{Parts: p, RandomDist: true})
		if err != nil {
			t.Fatalf("%s: %v", gn.Name, err)
		}
		qx := Evaluate(g, parts, p)
		rparts, _ := Partition(MethodRandom, g, p, 9)
		qr := Evaluate(g, rparts, p)
		if qx.EdgeCutRatio >= qr.EdgeCutRatio {
			t.Errorf("%s: XtraPuLP cut %.3f not below random %.3f",
				gn.Name, qx.EdgeCutRatio, qr.EdgeCutRatio)
		}
	}
}
