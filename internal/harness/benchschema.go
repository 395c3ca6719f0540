package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// exchangeDoc is the BENCH_exchange.json document shape — written by
// writeExchangeJSON and parsed back by ValidateExchangeJSON, one type
// so the two sides cannot drift apart.
type exchangeDoc struct {
	Experiment string `json:"experiment"`
	// Transport names the rank substrate the measurements ran over:
	// "proc" (the in-process goroutine world) or "socket" (OS processes
	// over the wire transport). Trajectory points from different
	// substrates are not comparable, so the artifact must say which one
	// it is.
	Transport string        `json:"transport"`
	Scale     string        `json:"scale"`
	Seed      uint64        `json:"seed"`
	PipeDepth int           `json:"pipeDepth"`
	Rows      []ExchangeRow `json:"rows"`
}

// ValidateExchangeJSON parses a BENCH_exchange.json artifact and
// checks the measurements CI depends on are actually present — the
// artifact is load-bearing for the benchmark trajectory, so a silently
// truncated or schema-drifted file must fail the build, not upload.
// Beyond well-formedness it requires, per path:
//
//   - a Transport naming a known rank substrate (proc or socket), so
//     trajectory points from different substrates are never mixed;
//   - a PipeDepth of at least 2 (the configured exchange-pipeline
//     depth the run was measured at);
//   - every row: a Threads count of at least 1 (the intra-rank thread
//     budget the row's sweeps ran with), so trajectory points at
//     different budgets are never silently mixed;
//   - partition rows: a Reductions count and an EdgeCut;
//   - analytics rows: SweepSeconds, Reductions and AllocsPerRound, the HC-wave
//     measurements (HCWaves, HCReductions, HCSecPerSource), and on
//     async rows a PipelineDepth no smaller than the configured depth
//     (the full pipeline must have been observed in flight during the
//     allocation measurement) plus HCWaves = PipeDepth/2;
//   - per graph, the async analytics row's HCReductions strictly below
//     the sync row's — the multi-wave engine must actually retire the
//     sequential loop's per-source Allreduces;
//   - spmv rows: SweepSeconds, a Reductions count (the SpMV-Allreduce
//     measurement), and on async rows the NormPiggyback flag.
//
// Proc artifacts must carry all three paths; socket artifacts
// (written by ExchangePartition) are accepted with partition rows
// alone, since the socket harness measures only that path.
func ValidateExchangeJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchcheck: %w", err)
	}
	var doc exchangeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("benchcheck: %s: %w", path, err)
	}
	if doc.Experiment != "exchange" {
		return fmt.Errorf("benchcheck: %s: experiment %q, want \"exchange\"", path, doc.Experiment)
	}
	switch doc.Transport {
	case "proc", "socket":
	default:
		return fmt.Errorf("benchcheck: %s: transport %q, want \"proc\" or \"socket\"", path, doc.Transport)
	}
	if len(doc.Rows) == 0 {
		return fmt.Errorf("benchcheck: %s: no measurement rows", path)
	}
	if doc.PipeDepth < 2 {
		return fmt.Errorf("benchcheck: %s: pipeDepth %d, want >= 2", path, doc.PipeDepth)
	}
	wantWaves := int64(doc.PipeDepth / 2)
	paths := map[string]int{}
	syncHCRed := map[string]int64{}
	for i, r := range doc.Rows {
		where := fmt.Sprintf("%s: row %d (%s/%s/%s)", path, i, r.Path, r.Graph, r.Mode)
		paths[r.Path]++
		if r.Threads < 1 {
			return fmt.Errorf("benchcheck: %s: threads %d, want >= 1 (intra-rank sweep budget)", where, r.Threads)
		}
		switch r.Path {
		case "partition":
			if r.Reductions == nil || r.EdgeCut == nil {
				return fmt.Errorf("benchcheck: %s: missing reductions or edgeCut", where)
			}
		case "analytics":
			if r.SweepSeconds == nil || *r.SweepSeconds < 0 {
				return fmt.Errorf("benchcheck: %s: missing or negative sweepSeconds", where)
			}
			if r.Reductions == nil || r.AllocsPerRound == nil {
				return fmt.Errorf("benchcheck: %s: missing reductions or allocsPerRound", where)
			}
			if r.HCWaves == nil || r.HCReductions == nil || r.HCSecPerSource == nil {
				return fmt.Errorf("benchcheck: %s: missing hcWaves, hcReductions, or hcSecPerSource", where)
			}
			if r.Mode == "async-delta" {
				if r.PipelineDepth == nil {
					return fmt.Errorf("benchcheck: %s: missing pipelineDepth", where)
				}
				if *r.PipelineDepth < int64(doc.PipeDepth) {
					return fmt.Errorf("benchcheck: %s: pipelineDepth %d, want >= %d (full pipeline never in flight)",
						where, *r.PipelineDepth, doc.PipeDepth)
				}
				if *r.HCWaves != wantWaves {
					return fmt.Errorf("benchcheck: %s: hcWaves %d, want %d (= pipeDepth/2)",
						where, *r.HCWaves, wantWaves)
				}
				// The sync row for a graph always precedes its async
				// row; the wave engine must beat the sequential loop's
				// Allreduce count (it retires per-source eccentricity
				// and per-round termination reductions). A missing
				// baseline is itself an error — otherwise a reordered
				// or truncated artifact would skip the comparison and
				// upload a regression as valid.
				syncRed, ok := syncHCRed[r.Graph]
				if !ok {
					return fmt.Errorf("benchcheck: %s: no preceding sync analytics row for graph %q (hcReductions baseline missing)",
						where, r.Graph)
				}
				if *r.HCReductions >= syncRed {
					return fmt.Errorf("benchcheck: %s: hcReductions %d not below sync row's %d",
						where, *r.HCReductions, syncRed)
				}
			} else {
				syncHCRed[r.Graph] = *r.HCReductions
			}
		case "spmv":
			if r.SweepSeconds == nil || *r.SweepSeconds < 0 {
				return fmt.Errorf("benchcheck: %s: missing or negative sweepSeconds", where)
			}
			if r.Reductions == nil {
				return fmt.Errorf("benchcheck: %s: missing reductions (SpMV-Allreduce measurement)", where)
			}
			if r.Mode == "async-delta" && r.NormPiggyback == nil {
				return fmt.Errorf("benchcheck: %s: missing normPiggyback", where)
			}
		default:
			return fmt.Errorf("benchcheck: %s: unknown path %q", where, r.Path)
		}
	}
	// The proc harness measures all three paths in one run; the socket
	// harness (ExchangePartition) measures the partitioning path only —
	// analytics and SpMV drive in-process worlds per measurement — so
	// a socket artifact is complete with partition rows alone. Rows it
	// does carry from other paths are still held to their field rules
	// above.
	required := []string{"partition", "analytics", "spmv"}
	if doc.Transport == "socket" {
		required = []string{"partition"}
	}
	for _, want := range required {
		if paths[want] == 0 {
			return fmt.Errorf("benchcheck: %s: no %s rows", path, want)
		}
	}
	return nil
}

// benchKey identifies one measurement row across two artifacts.
type benchKey struct {
	path, graph, mode, layout string
	ranks, threads            int
}

func (k benchKey) String() string {
	s := fmt.Sprintf("%s/%s ranks=%d threads=%d %s", k.path, k.graph, k.ranks, k.threads, k.mode)
	if k.layout != "" {
		s += " " + k.layout
	}
	return s
}

// readExchangeRows parses an artifact and indexes its rows by key.
func readExchangeRows(path string) (map[benchKey]ExchangeRow, []benchKey, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("benchcheck: %w", err)
	}
	var doc exchangeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, nil, fmt.Errorf("benchcheck: %s: %w", path, err)
	}
	rows := make(map[benchKey]ExchangeRow, len(doc.Rows))
	keys := make([]benchKey, 0, len(doc.Rows))
	for _, r := range doc.Rows {
		k := benchKey{r.Path, r.Graph, r.Mode, r.Layout, r.Ranks, r.Threads}
		if _, dup := rows[k]; dup {
			return nil, nil, fmt.Errorf("benchcheck: %s: duplicate row %s", path, k)
		}
		rows[k] = r
		keys = append(keys, k)
	}
	return rows, keys, nil
}

// sameCell reports whether two optional cells hold the same value (or
// are both absent).
func sameCell[T comparable](a, b *T) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return *a == *b
}

// cellString renders an optional cell for a drift report.
func cellString[T any](v *T) string {
	if v == nil {
		return "absent"
	}
	return fmt.Sprint(*v)
}

// CompareExchangeJSON checks a generated BENCH_exchange.json against a
// committed one: rows match by (path, graph, ranks, mode, threads,
// layout), every row must be present in both, and the deterministic
// columns — exchElems, reductions, edgeCut, hcWaves, hcReductions,
// normPiggyback and pipelineDepth — must be equal. Wall, sweep and
// allocation columns depend on the host and are never compared. A
// change that moves a deterministic column regenerates the committed
// artifact in the same change.
func CompareExchangeJSON(committedPath, generatedPath string) error {
	want, keys, err := readExchangeRows(committedPath)
	if err != nil {
		return err
	}
	got, gotKeys, err := readExchangeRows(generatedPath)
	if err != nil {
		return err
	}
	var drift []string
	for _, k := range keys {
		w := want[k]
		g, ok := got[k]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: row missing from %s", k, generatedPath))
			continue
		}
		cell := func(name string, same bool, gv, wv string) {
			if !same {
				drift = append(drift, fmt.Sprintf("%s: %s %s, committed %s", k, name, gv, wv))
			}
		}
		cell("exchElems", g.ExchElems == w.ExchElems, fmt.Sprint(g.ExchElems), fmt.Sprint(w.ExchElems))
		cell("reductions", sameCell(g.Reductions, w.Reductions), cellString(g.Reductions), cellString(w.Reductions))
		cell("edgeCut", sameCell(g.EdgeCut, w.EdgeCut), cellString(g.EdgeCut), cellString(w.EdgeCut))
		cell("hcWaves", sameCell(g.HCWaves, w.HCWaves), cellString(g.HCWaves), cellString(w.HCWaves))
		cell("hcReductions", sameCell(g.HCReductions, w.HCReductions), cellString(g.HCReductions), cellString(w.HCReductions))
		cell("normPiggyback", sameCell(g.NormPiggyback, w.NormPiggyback), cellString(g.NormPiggyback), cellString(w.NormPiggyback))
		cell("pipelineDepth", sameCell(g.PipelineDepth, w.PipelineDepth), cellString(g.PipelineDepth), cellString(w.PipelineDepth))
	}
	for _, k := range gotKeys {
		if _, ok := want[k]; !ok {
			drift = append(drift, fmt.Sprintf("%s: row absent from %s", k, committedPath))
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("benchcheck: %s drifts from %s:\n  %s", generatedPath, committedPath, strings.Join(drift, "\n  "))
	}
	return nil
}
