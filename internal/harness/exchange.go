package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/analytics"
	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/spmv"
)

// Exchange compares the bulk-synchronous exchange engine against the
// asynchronous delta engine on all three communication paths:
//
//   - Partitioning: boundary label updates with piggybacked size
//     tallies. Reported per graph: wall time, exchanged-element volume
//     during the partitioning stages, the Allreduce count (the
//     per-iteration settle barrier the piggybacked tallies retire),
//     and the edge cut — which must be identical, the async path is a
//     pure transport change at fixed seeds.
//   - Analytics: the value flows driven by PageRank, WCC, and a BFS
//     sweep. The async engine runs them split-phase with the
//     convergence counters piggybacked on the messages, so its
//     Allreduce count collapses and its steady-state rounds allocate
//     nothing (the Allocs/rnd column measures one boundary value
//     round end to end — software-pipelined to the configured depth
//     in async mode, reported by the PipeDepth column). A separate
//     Harmonic Centrality measurement compares the sequential
//     BFS-per-source loop (sync mode) against the multi-wave engine
//     (async mode, Config.PipeDepth/2 concurrent waves): the HCWaves,
//     HCAllred, and HCs/src columns show the async engine issuing
//     fewer total Allreduces and lower wall time per source while the
//     centralities stay bit-identical.
//   - SpMV: the expand/fold phases under 1D and 2D layouts, where the
//     async engine also bypasses self-destined shares and — on
//     complete expand neighborhoods (NormRide column) — piggybacks
//     the power iteration's ∞-norm on the expand messages, collapsing
//     the Allreduces column from iterations+1 to a constant.
//
// With Config.JSONPath set, the same measurements are written as JSON
// (BENCH_exchange.json) for machine consumption.
//
//repro:deterministic
func Exchange(cfg Config) error {
	// One thread per rank: the comparison asserts the async path
	// changes nothing but the transport, and the partitioner is
	// bit-deterministic only at one thread.
	rows, err := exchangePartition(repro.Local(scalePick(cfg.Scale, 4, 8), 1), cfg)
	if err != nil {
		return err
	}
	if err := exchangeAnalytics(cfg, &rows); err != nil {
		return err
	}
	if err := exchangeSpMV(cfg, &rows); err != nil {
		return err
	}
	return writeExchangeJSON(cfg, rows)
}

// ExchangePartition is the exchange comparison's partitioning path
// alone, measured over a world formed outside the process: every rank
// of the world calls it with the same Config on Joined(c) (see
// repro.SocketComm), the runs are collective, and rank 0 prints the
// table and writes cfg.JSONPath. The analytics and SpMV comparisons
// spin up one in-process world per measurement and have no
// external-world form, so the artifact is partition-only and stamped
// Transport "socket"; ValidateExchangeJSON accepts exactly that shape
// for the socket substrate. Edge cuts are bit-identical to the proc
// substrate at the same seed and world size: the transport is below
// the engine's determinism line. The sync/async cut equality and the
// cross-substrate bit-identity both need serial partitioning, so the
// launcher should form the world with one thread — cmd/experiments'
// default.
//
//repro:deterministic
func ExchangePartition(w repro.World, cfg Config) error {
	if w.Rank() != 0 {
		cfg.W, cfg.JSONPath = io.Discard, ""
	} else if cfg.W == nil {
		cfg.W = io.Discard
	}
	rows, err := exchangePartition(w, cfg)
	if err != nil {
		return err
	}
	return writeExchangeJSONAs(cfg, "socket", rows)
}

// ExchangeRow is one machine-readable measurement of the exchange
// comparison. Fields a path does not measure are pointers left nil and
// omitted from the JSON, so a consumer can tell "measured zero" (the
// async engine's headline allocation result) from "not applicable".
type ExchangeRow struct {
	// Path is the communication path: partition, analytics, or spmv.
	Path  string `json:"path"`
	Graph string `json:"graph"`
	Ranks int    `json:"ranks"`
	// Layout is set for spmv rows (1d or 2d).
	Layout string `json:"layout,omitempty"`
	// Mode is sync or async-delta.
	Mode string `json:"mode"`
	// Threads is the intra-rank thread budget the row's sweeps ran
	// with (the partition path is always 1; see Config.Threads).
	Threads     int     `json:"threads"`
	WallSeconds float64 `json:"wallSeconds"`
	// ExchElems is the total element volume all ranks sent.
	ExchElems int64 `json:"exchElems"`
	// Reductions counts Allreduce operations (all three paths; for spmv
	// it is the per-rank count from spmv.Result.Reductions — the async
	// norm piggyback collapses it to a constant independent of the
	// iteration count).
	Reductions *int64 `json:"reductions,omitempty"`
	// AllocsPerRound is the measured steady-state heap allocations of
	// one boundary value round across all ranks (analytics path; the
	// async engine measures software-pipelined rounds).
	AllocsPerRound *float64 `json:"allocsPerRound,omitempty"`
	// PipelineDepth is the exchanger's observed in-flight round
	// high-water mark during the measurement (analytics path, async
	// mode; 2 = a second round was posted while the first was still
	// outstanding).
	PipelineDepth *int64 `json:"pipelineDepth,omitempty"`
	// NormPiggyback reports whether SpMV's async engine rode the
	// per-iteration ∞-norm on the expand messages (spmv path, async
	// mode).
	NormPiggyback *bool `json:"normPiggyback,omitempty"`
	// HCWaves is the number of concurrent BFS waves the Harmonic
	// Centrality measurement ran (analytics path: 1 in sync mode,
	// PipeDepth/2 in async mode).
	HCWaves *int64 `json:"hcWaves,omitempty"`
	// HCReductions counts the Allreduce operations of the HC
	// measurement alone; the multi-wave engine must come in strictly
	// below the sequential loop (benchcheck gates it).
	HCReductions *int64 `json:"hcReductions,omitempty"`
	// HCSecPerSource is the HC measurement's wall time divided by its
	// source count (analytics path).
	HCSecPerSource *float64 `json:"hcSecPerSource,omitempty"`
	// EdgeCut is the partition quality (partition path).
	EdgeCut *float64 `json:"edgeCut,omitempty"`
	// SweepSeconds is the wall-clock time rank 0 spent inside the
	// row's intra-rank parallel sweeps — relaxation and frontier
	// expansion for analytics rows, the local row-sum kernel for spmv
	// rows — excluding all communication. Partition rows leave it nil.
	SweepSeconds *float64 `json:"sweepSeconds,omitempty"`
}

// ptr boxes a measured value for ExchangeRow's optional fields.
func ptr[T any](v T) *T { return &v }

// writeExchangeJSON writes the collected rows to cfg.JSONPath (no-op
// when unset). Exchange drives in-process worlds, so the substrate is
// stamped proc; the external-world form (ExchangePartition) stamps its
// own name through writeExchangeJSONAs.
func writeExchangeJSON(cfg Config, rows []ExchangeRow) error {
	return writeExchangeJSONAs(cfg, "proc", rows)
}

// writeExchangeJSONAs writes the collected rows to cfg.JSONPath (no-op
// when unset) stamped with the named rank substrate.
func writeExchangeJSONAs(cfg Config, transport string, rows []ExchangeRow) error {
	if cfg.JSONPath == "" {
		return nil
	}
	// exchangeDoc is shared with the schema validator, so the written
	// and validated shapes cannot drift apart.
	doc := exchangeDoc{Experiment: "exchange", Transport: transport, Scale: cfg.Scale.String(),
		Seed: cfg.seed(), PipeDepth: cfg.pipeDepth(), Rows: rows}
	f, err := os.Create(cfg.JSONPath)
	if err != nil {
		return fmt.Errorf("exchange: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close() //lint:ignore errcheck the encode error is the root cause; report it instead
		return fmt.Errorf("exchange: %w", err)
	}
	// Close errors matter here: a full disk surfaces at Close, and
	// swallowing it would upload a silently truncated artifact.
	if err := f.Close(); err != nil {
		return fmt.Errorf("exchange: writing %s: %w", cfg.JSONPath, err)
	}
	return nil
}

// modeCells names a comparison row and computes its volume reduction
// against the sync baseline, recording the baseline on the sync pass.
func modeCells(async bool, syncVol *int64, vol int64) (mode, reduction string) {
	if !async {
		*syncVol = vol
		return "sync", "-"
	}
	reduction = "-"
	if *syncVol > 0 {
		reduction = fmt.Sprintf("%.1f%%", 100*(1-float64(vol)/float64(*syncVol)))
	}
	return "async-delta", reduction
}

// exchangePartition is the partitioning-path comparison on w, with
// the world's rank count and thread budget.
func exchangePartition(w repro.World, cfg Config) ([]ExchangeRow, error) {
	// Checked before any run: the analytics path would otherwise hit
	// SetPipeDepth's panic mid-experiment.
	if d := cfg.PipeDepth; d != 0 && d < dgraph.MinPipeDepth {
		return nil, fmt.Errorf("exchange: PipeDepth = %d, need 0 (default) or >= %d", d, dgraph.MinPipeDepth)
	}
	seed := cfg.seed()
	const parts = 16
	ranks, threads := w.Size(), w.Threads()
	var rows []ExchangeRow
	fmt.Fprintln(cfg.W, "Partitioning path (label updates + size settles):")
	t := newTable(cfg.W, "Graph", "Ranks", "Threads", "Mode", "Time(s)", "ExchElems", "Reduction", "Allreduces", "EdgeCut")
	for _, tg := range representatives(cfg.Scale, seed) {
		var syncVol int64
		for _, async := range []bool{false, true} {
			_, rep, err := repro.XtraPuLP(w, tg.gen, repro.Config{
				Parts: parts, RandomDist: true, Seed: seed, AsyncExchange: async,
			})
			if err != nil {
				return nil, fmt.Errorf("exchange: %s async=%v: %w", tg.name, async, err)
			}
			mode, reduction := modeCells(async, &syncVol, rep.ExchangeVolume)
			t.add(tg.name, fmt.Sprintf("%d", ranks), fmt.Sprintf("%d", threads), mode, secs(rep.TotalTime),
				fmt.Sprintf("%d", rep.ExchangeVolume), reduction,
				fmt.Sprintf("%d", rep.ReductionOps),
				fmt.Sprintf("%.3f", rep.Quality.EdgeCutRatio))
			rows = append(rows, ExchangeRow{
				Path: "partition", Graph: tg.name, Ranks: ranks, Mode: mode, Threads: threads,
				WallSeconds: rep.TotalTime.Seconds(), ExchElems: rep.ExchangeVolume,
				Reductions: ptr(rep.ReductionOps), EdgeCut: ptr(rep.Quality.EdgeCutRatio),
			})
		}
	}
	t.flush()
	return rows, nil
}

// allocRounds is how many steady-state value rounds the allocation
// measurement averages over (after warmup).
const allocRounds = 64

// measureValueRoundAllocs measures the heap allocations of one
// full-boundary value round on the graph's exchanger, averaged over
// allocRounds rounds after warmup, and reports the most rounds the
// exchanger held in flight at once. It is a collective: every rank
// runs the same rounds; rank 0 reads the process-wide allocation
// counter between two barriers, so the result covers all ranks (the
// delta engine's rounds are expected to allocate zero in steady
// state).
//
// The rounds are software-pipelined the way the overlapped BFS runs
// them, at the split-phase API the analytics use, tally included:
// each call posts the next round with BeginValues and flushes the
// oldest one only once the exchanger's full depth is in flight, so a
// depth-k exchanger keeps k rounds in flight throughout the measured
// window (the bulk engine's depth is 1). Depth-1 rounds stay pending
// when the measurement ends; Graph.Close settles them during teardown.
func measureValueRoundAllocs(c *mpi.Comm, dg *dgraph.Graph) (float64, int64) {
	bv := dg.BoundaryVertices()
	ex := dg.Exchanger()
	payload := make([]int64, len(bv))
	for i, v := range bv {
		payload[i] = int64(v)
	}
	tally := &dgraph.Tally{Vals: []int64{1}}
	var inFlight int64
	round := func() {
		ex.BeginValues(bv, payload, tally)
		inFlight = max(inFlight, int64(ex.InFlight()))
		if ex.InFlight() == ex.Depth() {
			ex.FlushValues()
		}
	}
	// Warmup must reach the transport's in-flight high-water mark (up
	// to two rounds of pooled buffers per neighbor pair, and ranks can
	// drift a round apart while free-running) before the measured
	// window opens.
	for i := 0; i < 32; i++ {
		round()
	}
	c.Barrier()
	var m0, m1 runtime.MemStats
	if c.Rank() == 0 {
		// Flush the preceding run's garbage out of the measured window;
		// the second cycle waits out finalizers the first one queued.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	c.Barrier()
	inFlight = 0
	for i := 0; i < allocRounds; i++ {
		round()
	}
	c.Barrier()
	if c.Rank() == 0 {
		runtime.ReadMemStats(&m1)
	}
	c.Barrier()
	return float64(m1.Mallocs-m0.Mallocs) / allocRounds, inFlight
}

// exchangeAnalytics measures the value-flow paths: total elements
// sent, Allreduce operations, and steady-state allocations while
// PageRank, WCC, and one BFS run over a vertex-block placement — plus
// a separate Harmonic Centrality measurement comparing the sequential
// BFS-per-source loop (sync mode) against the multi-wave engine (async
// mode, Config.PipeDepth/2 concurrent waves).
//
//repro:timing
func exchangeAnalytics(cfg Config, rows *[]ExchangeRow) error {
	seed := cfg.seed()
	ranks := scalePick(cfg.Scale, 4, 8)
	prIters := scalePick(cfg.Scale, 10, 20)
	hcSources := scalePick(cfg.Scale, 8, 24)
	threads := cfg.threads()
	fmt.Fprintf(cfg.W, "\nAnalytics path (PR + WCC + BFS value exchanges; HC with %d sources):\n", hcSources)
	t := newTable(cfg.W, "Graph", "Ranks", "Threads", "Mode", "Time(s)", "Sweep(s)", "ExchElems", "Reduction", "Allreduces",
		"Allocs/rnd", "PipeDepth", "HCWaves", "HCAllred", "HCs/src")
	for _, tg := range representatives(cfg.Scale, seed)[:scalePick(cfg.Scale, 3, 6)] {
		shared, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("exchange: %s: %w", tg.name, err)
		}
		placement := partition.VertexBlock(shared, ranks)
		srcs := analytics.HCSourceList(hcSources, tg.gen.N)
		var syncVol int64
		for _, async := range []bool{false, true} {
			var volume, reductions, depth, hcWaves, hcRed int64
			var wall, hcWall, sweep time.Duration
			var allocs float64
			mpi.RunThreads(ranks, threads, func(c *mpi.Comm) {
				dg, err := dgraph.FromEdgeChunks(c, tg.gen.N, tg.gen.EdgesChunk(c.Rank(), c.Size()),
					dgraph.PartsDist{Parts: placement})
				if err != nil {
					panic(err)
				}
				dg.SetPipeDepth(cfg.PipeDepth)
				dg.SetAsyncExchange(async)
				c.ResetStats()
				start := time.Now()
				_, prRes := analytics.PageRank(dg, prIters, 0.85)
				_, wccRes := analytics.WCC(dg)
				analytics.BFS(dg, 0)
				elapsed := time.Since(start)
				// HC separately: in sync mode the sequential loop pays
				// per-round termination plus one eccentricity Allreduce
				// per source; the multi-wave engine piggybacks per-wave
				// termination and needs no eccentricities at all.
				redBefore := c.Stats().ReductionOps
				hcStart := time.Now()
				_, hcRes := analytics.HarmonicCentrality(dg, srcs)
				hcElapsed := time.Since(hcStart)
				sweepTime := prRes.SweepTime + wccRes.SweepTime + hcRes.SweepTime
				hcReduce := c.Stats().ReductionOps - redBefore
				waves := int64(analytics.HCWaves(dg))
				red := redBefore
				v := mpi.AllreduceScalar(c, c.Stats().ElemsSent, mpi.Sum)
				a, d := measureValueRoundAllocs(c, dg)
				// Settles the measurement's still-pending pipelined
				// rounds (their messages are already in flight on every
				// rank) and stops the drainer goroutine.
				dg.Close()
				if c.Rank() == 0 {
					volume, reductions, wall, allocs, depth = v, red, elapsed, a, d
					hcWaves, hcRed, hcWall = waves, hcReduce, hcElapsed
					sweep = sweepTime
				}
			})
			mode, reduction := modeCells(async, &syncVol, volume)
			hcPerSrc := hcWall.Seconds()
			if len(srcs) > 0 {
				hcPerSrc /= float64(len(srcs))
			}
			t.add(tg.name, fmt.Sprintf("%d", ranks), fmt.Sprintf("%d", threads), mode, secs(wall), secs(sweep),
				fmt.Sprintf("%d", volume), reduction,
				fmt.Sprintf("%d", reductions),
				fmt.Sprintf("%.1f", allocs),
				fmt.Sprintf("%d", depth),
				fmt.Sprintf("%d", hcWaves),
				fmt.Sprintf("%d", hcRed),
				fmt.Sprintf("%.4f", hcPerSrc))
			row := ExchangeRow{
				Path: "analytics", Graph: tg.name, Ranks: ranks, Mode: mode, Threads: threads,
				WallSeconds: wall.Seconds(), ExchElems: volume,
				Reductions: ptr(reductions), AllocsPerRound: ptr(allocs),
				HCWaves: ptr(hcWaves), HCReductions: ptr(hcRed),
				HCSecPerSource: ptr(hcPerSrc), SweepSeconds: ptr(sweep.Seconds()),
			}
			if async {
				row.PipelineDepth = ptr(depth)
			}
			*rows = append(*rows, row)
		}
	}
	t.flush()
	return nil
}

// exchangeSpMV measures the expand/fold phases under both layouts.
func exchangeSpMV(cfg Config, rows *[]ExchangeRow) error {
	seed := cfg.seed()
	ranks := scalePick(cfg.Scale, 4, 16)
	iters := scalePick(cfg.Scale, 10, 100)
	threads := cfg.threads()
	fmt.Fprintln(cfg.W, "\nSpMV path (expand/fold phases):")
	t := newTable(cfg.W, "Graph", "Ranks", "Threads", "Layout", "Mode", "Sweep(s)", "SentVals", "Reduction", "Allreduces", "NormRide")
	for _, tg := range representatives(cfg.Scale, seed)[:scalePick(cfg.Scale, 2, 4)] {
		shared, err := tg.gen.Build()
		if err != nil {
			return fmt.Errorf("exchange: %s: %w", tg.name, err)
		}
		placement := partition.VertexBlock(shared, ranks)
		for _, layout := range []string{repro.Layout1D, repro.Layout2D} {
			var syncVol int64
			for _, async := range []bool{false, true} {
				l := spmv.OneD
				if layout == repro.Layout2D {
					l = spmv.TwoD
				}
				var volume, reductions int64
				var piggyback bool
				var wall, sweep time.Duration
				var runErr error
				mpi.RunThreads(ranks, threads, func(c *mpi.Comm) {
					res, err := spmv.Run(c, shared, placement, spmv.Options{
						Layout: l, Iterations: iters, Async: async,
					})
					if err != nil {
						if c.Rank() == 0 {
							runErr = err
						}
						return
					}
					v := mpi.AllreduceScalar(c, res.CommVolume, mpi.Sum)
					if c.Rank() == 0 {
						volume, wall = v, res.Time
						reductions, piggyback = res.Reductions, res.NormPiggyback
						sweep = res.MultiplyTime
					}
				})
				if runErr != nil {
					return fmt.Errorf("exchange: %s spmv %s: %w", tg.name, layout, runErr)
				}
				mode, reduction := modeCells(async, &syncVol, volume)
				t.add(tg.name, fmt.Sprintf("%d", ranks), fmt.Sprintf("%d", threads), layout, mode, secs(sweep),
					fmt.Sprintf("%d", volume), reduction,
					fmt.Sprintf("%d", reductions),
					fmt.Sprintf("%v", piggyback))
				row := ExchangeRow{
					Path: "spmv", Graph: tg.name, Ranks: ranks, Layout: layout,
					Mode: mode, Threads: threads, WallSeconds: wall.Seconds(), ExchElems: volume,
					Reductions: ptr(reductions), SweepSeconds: ptr(sweep.Seconds()),
				}
				if async {
					row.NormPiggyback = ptr(piggyback)
				}
				*rows = append(*rows, row)
			}
		}
	}
	t.flush()
	return nil
}
