package harness

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/pulp"
)

// Table2 reproduces the Cluster-1 comparison: partitioning time for
// multi-rank XtraPuLP, single-node PuLP, and the METIS-like multilevel
// baseline computing 16 parts over all four graph classes, with
// XtraPuLP's speedup relative to PuLP.
//
//repro:deterministic
//repro:timing
func Table2(cfg Config) error {
	seed := cfg.seed()
	const parts = 16
	ranks := scalePick(cfg.Scale, 8, 16)
	t := newTable(cfg.W, "Graph", "Class", "XtraPuLP(s)", "PuLP(s)", "METIS-like(s)", "vs PuLP", "ExchElems")
	for _, tg := range corpus(cfg.Scale, seed) {
		g, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("table2: %s: %w", tg.name, err)
		}
		_, xrep, err := repro.XtraPuLP(repro.Local(ranks, 0), tg.gen, repro.Config{
			Parts: parts, RandomDist: true, Seed: seed,
		})
		if err != nil {
			return fmt.Errorf("table2: %s xtrapulp: %w", tg.name, err)
		}
		popt := pulp.DefaultOptions(parts)
		popt.Seed = seed
		pStart := time.Now()
		if _, _, err := pulp.Partition(g, popt); err != nil {
			return fmt.Errorf("table2: %s pulp: %w", tg.name, err)
		}
		pTime := time.Since(pStart)
		mopt := multilevel.MetisLike(parts)
		mopt.Seed = seed
		mStart := time.Now()
		if _, _, err := multilevel.Partition(g, mopt); err != nil {
			return fmt.Errorf("table2: %s metis: %w", tg.name, err)
		}
		mTime := time.Since(mStart)
		t.add(tg.name, tg.class, secs(xrep.TotalTime), secs(pTime), secs(mTime),
			fmt.Sprintf("%.2fx", pTime.Seconds()/xrep.TotalTime.Seconds()),
			fmt.Sprintf("%d", xrep.ExchangeVolume))
	}
	t.flush()
	return nil
}

// Fig3 reproduces the Cluster-1 relative speedup study: XtraPuLP
// speedup versus its own single-rank time while ranks grow, for the
// six representative graphs.
//
//repro:deterministic
func Fig3(cfg Config) error {
	seed := cfg.seed()
	const parts = 16
	ranks := scalePick(cfg.Scale, []int{1, 2, 4, 8}, []int{1, 2, 4, 8, 16})
	t := newTable(cfg.W, "Graph", "Ranks", "Time(s)", "Speedup")
	for _, tg := range representatives(cfg.Scale, seed) {
		var base time.Duration
		for _, r := range ranks {
			_, rep, err := repro.XtraPuLP(repro.Local(r, 0), tg.gen, repro.Config{
				Parts: parts, RandomDist: true, Seed: seed,
			})
			if err != nil {
				return fmt.Errorf("fig3: %s r=%d: %w", tg.name, r, err)
			}
			if r == 1 {
				base = rep.TotalTime
			}
			t.add(tg.name, fmt.Sprintf("%d", r), secs(rep.TotalTime),
				fmt.Sprintf("%.2fx", base.Seconds()/rep.TotalTime.Seconds()))
		}
	}
	t.flush()
	return nil
}

// Fig4 reproduces the quality-versus-parts study: edge cut ratio and
// scaled max per-part cut for XtraPuLP, PuLP, and the METIS-like
// baseline while the part count doubles from 2 to 64 (paper: 256) over
// the six representative graphs.
//
//repro:deterministic
func Fig4(cfg Config) error {
	seed := cfg.seed()
	partCounts := scalePick(cfg.Scale, []int{2, 4, 8, 16, 32}, []int{2, 4, 8, 16, 32, 64, 128, 256})
	ranks := scalePick(cfg.Scale, 4, 8)
	t := newTable(cfg.W, "Graph", "Parts", "Partitioner", "EdgeCut", "ScaledMaxCut", "VertImb")
	for _, tg := range representatives(cfg.Scale, seed) {
		g, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("fig4: %s: %w", tg.name, err)
		}
		for _, p := range partCounts {
			xparts, _, err := repro.XtraPuLP(repro.Local(ranks, 0), tg.gen, repro.Config{
				Parts: p, RandomDist: true, Seed: seed,
			})
			if err != nil {
				return fmt.Errorf("fig4: %s p=%d xtrapulp: %w", tg.name, p, err)
			}
			popt := pulp.DefaultOptions(p)
			popt.Seed = seed
			pparts, _, err := pulp.Partition(g, popt)
			if err != nil {
				return fmt.Errorf("fig4: %s p=%d pulp: %w", tg.name, p, err)
			}
			mopt := multilevel.MetisLike(p)
			mopt.Seed = seed
			mparts, _, err := multilevel.Partition(g, mopt)
			if err != nil {
				return fmt.Errorf("fig4: %s p=%d metis: %w", tg.name, p, err)
			}
			for _, row := range []struct {
				who   string
				parts []int32
			}{{"XtraPuLP", xparts}, {"PuLP", pparts}, {"METIS-like", mparts}} {
				q := partition.Evaluate(g, row.parts, p)
				t.add(tg.name, fmt.Sprintf("%d", p), row.who,
					fmt.Sprintf("%.3f", q.EdgeCutRatio),
					fmt.Sprintf("%.3f", q.ScaledMaxCutRatio),
					fmt.Sprintf("%.3f", q.VertexImbalance))
			}
		}
	}
	t.flush()
	return nil
}

// Fig5 reproduces the quality-versus-ranks study on the WDC proxy:
// edge cut ratio, scaled max cut ratio, and edge imbalance of a fixed
// part count while the rank count grows.
//
//repro:deterministic
func Fig5(cfg Config) error {
	seed := cfg.seed()
	parts := scalePick(cfg.Scale, 16, 64)
	ranks := scalePick(cfg.Scale, []int{1, 2, 4, 8}, []int{1, 2, 4, 8, 16})
	tg := corpus(cfg.Scale, seed)[3] // wdc-proxy
	t := newTable(cfg.W, "Ranks", "EdgeCut", "ScaledMaxCut", "EdgeImb", "VertImb")
	for _, r := range ranks {
		_, rep, err := repro.XtraPuLP(repro.Local(r, 0), tg.gen, repro.Config{
			Parts: parts, RandomDist: true, Seed: seed,
		})
		if err != nil {
			return fmt.Errorf("fig5: ranks=%d: %w", r, err)
		}
		q := rep.Quality
		t.add(fmt.Sprintf("%d", r),
			fmt.Sprintf("%.4f", q.EdgeCutRatio),
			fmt.Sprintf("%.3f", q.ScaledMaxCutRatio),
			fmt.Sprintf("%.3f", q.EdgeImbalance),
			fmt.Sprintf("%.3f", q.VertexImbalance))
	}
	t.flush()
	return nil
}

// Fig6 reproduces the single-constraint single-objective comparison
// against the KaHIP-like partitioner (§V.C): edge cut and execution
// time for XtraPuLP (edge stages disabled), PuLP, METIS-like, and
// KaHIP-like, all at a 3% balance constraint.
//
//repro:deterministic
//repro:timing
func Fig6(cfg Config) error {
	seed := cfg.seed()
	partCounts := scalePick(cfg.Scale, []int{2, 8, 32}, []int{2, 4, 8, 16, 32, 64, 128, 256})
	ranks := scalePick(cfg.Scale, 4, 8)
	picks := map[string]bool{"lj-proxy": true, "rmat-proxy": true, "uk2002-proxy": true}
	t := newTable(cfg.W, "Graph", "Parts", "Partitioner", "EdgeCut", "Time(s)")
	for _, tg := range corpus(cfg.Scale, seed) {
		if !picks[tg.name] {
			continue
		}
		g, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("fig6: %s: %w", tg.name, err)
		}
		for _, p := range partCounts {
			// XtraPuLP in single-constraint mode.
			start := time.Now()
			xparts, _, err := repro.XtraPuLP(repro.Local(ranks, 0), tg.gen, repro.Config{
				Parts: p, RandomDist: true, Seed: seed, SingleConstraint: true,
			})
			if err != nil {
				return fmt.Errorf("fig6: %s p=%d: %w", tg.name, p, err)
			}
			xTime := time.Since(start)
			popt := pulp.DefaultOptions(p)
			popt.Seed = seed
			popt.SingleConstraint = true
			start = time.Now()
			pparts, _, err := pulp.Partition(g, popt)
			if err != nil {
				return err
			}
			pTime := time.Since(start)
			mopt := multilevel.MetisLike(p)
			mopt.Seed = seed
			start = time.Now()
			mparts, _, err := multilevel.Partition(g, mopt)
			if err != nil {
				return err
			}
			mTime := time.Since(start)
			kopt := multilevel.KahipLike(p)
			kopt.Seed = seed
			start = time.Now()
			kparts, _, err := multilevel.Partition(g, kopt)
			if err != nil {
				return err
			}
			kTime := time.Since(start)
			for _, row := range []struct {
				who   string
				parts []int32
				d     time.Duration
			}{
				{"XtraPuLP", xparts, xTime}, {"PuLP", pparts, pTime},
				{"METIS-like", mparts, mTime}, {"KaHIP-like", kparts, kTime},
			} {
				q := partition.Evaluate(g, row.parts, p)
				t.add(tg.name, fmt.Sprintf("%d", p), row.who,
					fmt.Sprintf("%.3f", q.EdgeCutRatio), secs(row.d))
			}
		}
	}
	t.flush()
	return nil
}

// Fig7 reproduces the multiplier parameter sweep: average edge cut,
// max per-part cut, vertex balance, and edge balance over the (X, Y)
// grid, averaged across representative graphs and part counts.
//
//repro:deterministic
func Fig7(cfg Config) error {
	seed := cfg.seed()
	vals := scalePick(cfg.Scale,
		[]float64{0, 0.25, 1.0, 2.5},
		[]float64{0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0})
	partCounts := scalePick(cfg.Scale, []int{8}, []int{2, 8, 32, 128})
	ranks := scalePick(cfg.Scale, 4, 8)
	graphs := representatives(cfg.Scale, seed)
	graphs = graphs[:scalePick(cfg.Scale, 2, len(graphs))]
	t := newTable(cfg.W, "X", "Y", "EdgeCut", "MaxCut", "VertImb", "EdgeImb")
	for _, x := range vals {
		for _, y := range vals {
			var cut, maxCut, vimb, eimb float64
			var runs int
			for _, tg := range graphs {
				for _, p := range partCounts {
					_, rep, err := repro.XtraPuLP(repro.Local(ranks, 0), tg.gen, repro.Config{
						Parts: p, RandomDist: true, Seed: seed,
						OverrideXY: true, X: x, Y: y,
					})
					if err != nil {
						return fmt.Errorf("fig7: X=%v Y=%v: %w", x, y, err)
					}
					q := rep.Quality
					cut += q.EdgeCutRatio
					maxCut += q.ScaledMaxCutRatio
					vimb += q.VertexImbalance
					eimb += q.EdgeImbalance
					runs++
				}
			}
			f := float64(runs)
			t.add(fmt.Sprintf("%.2f", x), fmt.Sprintf("%.2f", y),
				fmt.Sprintf("%.3f", cut/f), fmt.Sprintf("%.3f", maxCut/f),
				fmt.Sprintf("%.3f", vimb/f), fmt.Sprintf("%.3f", eimb/f))
		}
	}
	t.flush()
	return nil
}
