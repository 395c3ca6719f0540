package harness

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/gen"
)

// Table1 regenerates the paper's Table I: per-graph statistics (n, m,
// average and max degree, approximate diameter) for every proxy class
// plus the synthetic scaling families.
//
//repro:deterministic
func Table1(cfg Config) error {
	seed := cfg.seed()
	graphs := corpus(cfg.Scale, seed)
	n := scalePick(cfg.Scale, int64(1<<12), int64(1<<15))
	graphs = append(graphs,
		testGraph{name: "rander", class: "rand", gen: gen.ERAvgDeg(n, 16, seed+10)},
		testGraph{name: "randhd", class: "rand", gen: gen.RandHD(n, 16, seed+11)},
		testGraph{name: "smallworld", class: "social", gen: gen.WattsStrogatz(n, 16, 0.1, seed+12)},
	)
	t := newTable(cfg.W, "Graph", "Class", "n", "m", "davg", "dmax", "D~")
	for _, tg := range graphs {
		g, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("table1: %s: %w", tg.name, err)
		}
		s := g.ComputeStats(10, seed)
		t.add(tg.name, tg.class,
			fmt.Sprintf("%d", s.N), fmt.Sprintf("%d", s.M),
			fmt.Sprintf("%.1f", s.AvgDeg), fmt.Sprintf("%d", s.MaxDeg),
			fmt.Sprintf("%d", s.DiamEst))
	}
	t.flush()
	return nil
}

// Fig1 reproduces the strong-scaling study: partitioning time for the
// WDC12 proxy and same-sized RMAT, RandER, and RandHD graphs while the
// rank count grows, computing a fixed number of parts.
//
//repro:deterministic
func Fig1(cfg Config) error {
	seed := cfg.seed()
	n := scalePick(cfg.Scale, int64(1<<13), int64(1<<16))
	parts := scalePick(cfg.Scale, 16, 64)
	ranks := scalePick(cfg.Scale, []int{1, 2, 4, 8}, []int{1, 2, 4, 8, 16})
	graphs := []testGraph{
		{name: "WDC-proxy", gen: gen.ChungLu(n, n*8, 2.1, seed)},
		{name: "RMAT", gen: gen.RMAT(log2(n), 16, seed+1)},
		{name: "RandER", gen: gen.ERAvgDeg(n, 16, seed+2)},
		{name: "RandHD", gen: gen.RandHD(n, 16, seed+3)},
	}
	t := newTable(cfg.W, "Graph", "Ranks", "Time(s)", "CutRatio", "Speedup")
	for _, tg := range graphs {
		var base time.Duration
		for _, r := range ranks {
			_, rep, err := repro.XtraPuLP(repro.Local(r, 0), tg.gen, repro.Config{
				Parts: parts, RandomDist: true, Seed: seed,
			})
			if err != nil {
				return fmt.Errorf("fig1: %s ranks=%d: %w", tg.name, r, err)
			}
			if r == ranks[0] {
				base = rep.TotalTime
			}
			t.add(tg.name, fmt.Sprintf("%d", r), secs(rep.TotalTime),
				fmt.Sprintf("%.3f", rep.Quality.EdgeCutRatio),
				fmt.Sprintf("%.2fx", float64(base)/float64(rep.TotalTime)))
		}
	}
	t.flush()
	return nil
}

// Fig2 reproduces the weak-scaling study: vertices per rank held
// constant while ranks double; average degree varies over {16, 32,
// 64}; the number of parts equals the rank count.
//
//repro:deterministic
func Fig2(cfg Config) error {
	seed := cfg.seed()
	perRank := scalePick(cfg.Scale, int64(1<<11), int64(1<<13))
	ranks := scalePick(cfg.Scale, []int{1, 2, 4, 8}, []int{1, 2, 4, 8, 16})
	t := newTable(cfg.W, "Family", "AvgDeg", "Ranks", "n", "Time(s)")
	for _, family := range []string{"RMAT", "RandER", "RandHD"} {
		for _, davg := range []int64{16, 32, 64} {
			for _, r := range ranks {
				n := perRank * int64(r)
				var g *gen.Generator
				switch family {
				case "RMAT":
					g = gen.RMAT(log2(n), davg, seed)
				case "RandER":
					g = gen.ERAvgDeg(n, davg, seed)
				default:
					g = gen.RandHD(n, davg, seed)
				}
				_, rep, err := repro.XtraPuLP(repro.Local(r, 0), g, repro.Config{
					Parts: r, RandomDist: true, Seed: seed,
				})
				if err != nil {
					return fmt.Errorf("fig2: %s d=%d r=%d: %w", family, davg, r, err)
				}
				t.add(family, fmt.Sprintf("%d", davg), fmt.Sprintf("%d", r),
					fmt.Sprintf("%d", n), secs(rep.TotalTime))
			}
		}
	}
	t.flush()
	return nil
}

// Trillion reproduces §V.A.2 at machine scale: the largest RandER,
// RandHD, and RMAT instances that fit, partitioned at the maximum rank
// count (the paper's 2^34-vertex / 2^40-edge runs on 8192 nodes).
//
//repro:deterministic
func Trillion(cfg Config) error {
	seed := cfg.seed()
	n := scalePick(cfg.Scale, int64(1<<15), int64(1<<19))
	ranks := 8
	t := newTable(cfg.W, "Graph", "n", "m", "Ranks", "Time(s)")
	gens := []testGraph{
		{name: "RandER", gen: gen.ERAvgDeg(n, 32, seed)},
		{name: "RandHD", gen: gen.RandHD(n, 32, seed+1)},
		{name: "RMAT", gen: gen.RMAT(log2(n), 16, seed+2)}, // half the edges, as in the paper
	}
	for _, tg := range gens {
		_, rep, err := repro.XtraPuLP(repro.Local(ranks, 0), tg.gen, repro.Config{
			Parts: ranks, RandomDist: true, Seed: seed,
		})
		if err != nil {
			return fmt.Errorf("trillion: %s: %w", tg.name, err)
		}
		t.add(tg.name, fmt.Sprintf("%d", tg.gen.N), fmt.Sprintf("%d", tg.gen.M),
			fmt.Sprintf("%d", ranks), secs(rep.TotalTime))
	}
	t.flush()
	return nil
}
