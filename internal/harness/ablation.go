package harness

import (
	"fmt"

	"repro"
	"repro/internal/core"
)

// Ablation quantifies the design choices XtraPuLP introduces beyond
// prior work, over the representative small-world graphs:
//
//   - initialization strategy (the paper's hybrid BFS vs random vs
//     block, §III.B and §V.E);
//   - the dynamic multiplier schedule (default (1.0, 0.25) vs
//     disabled damping vs heavy damping, §III.C);
//   - the vertex distribution (random/hashed vs block, §III.A).
//
// Each row reports final quality and time so the contribution of each
// mechanism is visible in isolation.
//
//repro:deterministic
func Ablation(cfg Config) error {
	seed := cfg.seed()
	ranks := scalePick(cfg.Scale, 4, 8)
	parts := scalePick(cfg.Scale, 16, 64)
	graphs := representatives(cfg.Scale, seed)[:scalePick(cfg.Scale, 2, 6)]

	type variant struct {
		name string
		cfg  repro.Config
	}
	world := repro.Local(ranks, 0)
	base := repro.Config{Parts: parts, RandomDist: true, Seed: seed}
	variants := []variant{
		{"default (BFS init, X=1 Y=0.25, random dist)", base},
	}
	v := base
	v.Init = core.InitRandom
	variants = append(variants, variant{"init=random", v})
	v = base
	v.Init = core.InitBlock
	variants = append(variants, variant{"init=block", v})
	v = base
	v.OverrideXY = true // X = Y = 0: damping disabled
	variants = append(variants, variant{"multiplier off (X=Y=0)", v})
	v = base
	v.X, v.Y = 4, 4
	variants = append(variants, variant{"multiplier heavy (X=Y=4)", v})
	v = base
	v.RandomDist = false
	variants = append(variants, variant{"dist=block", v})

	t := newTable(cfg.W, "Graph", "Variant", "EdgeCut", "VertImb", "EdgeImb", "Time(s)")
	for _, tg := range graphs {
		for _, va := range variants {
			_, rep, err := repro.XtraPuLP(world, tg.gen, va.cfg)
			if err != nil {
				return fmt.Errorf("ablation: %s %s: %w", tg.name, va.name, err)
			}
			q := rep.Quality
			t.add(tg.name, va.name,
				fmt.Sprintf("%.3f", q.EdgeCutRatio),
				fmt.Sprintf("%.3f", q.VertexImbalance),
				fmt.Sprintf("%.3f", q.EdgeImbalance),
				secs(rep.TotalTime))
		}
	}
	t.flush()
	return nil
}
