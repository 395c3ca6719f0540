// Command perfbench is the repository benchmark. It runs one named
// workload from a seed in a closed loop for a fixed time, checks every
// output, and prints its metrics by name with their units; the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"partition_s": {"value": 6.61, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, from a run that times every layer call from
// outside and also writes the spans as a Chrome trace. Run it through
// run.sh from the repository root:
//
//	bash perfbench/run.sh --workload rmat-p256 --seed 1 --seconds 30 --trace 0
//
// README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/gen"
)

// workload runs set-up and the timed loop, recording into r. An error
// means set-up failed and no result is printed.
type workload interface{ run(r *runner) error }

// workloads maps each workload name to its full-size or test-size form.
var workloads = map[string]func(tiny bool) workload{
	"rmat-p256": func(tiny bool) workload {
		scale, parts := 16, 256
		if tiny {
			scale, parts = 10, 16
		}
		return partitionWorkload{parts: parts, gen: func(seed uint64) *input {
			return chunksOf(gen.RMAT(scale, 16, seed))
		}}
	},
	"mesh-p8-socket": func(tiny bool) workload {
		side := int64(64)
		if tiny {
			side = 10
		}
		return partitionWorkload{parts: 8, socket: true, async: true, gen: func(seed uint64) *input {
			in := chunksOf(gen.Grid3D(side, side, side))
			in.drop(seed, 0.01)
			return in
		}}
	},
	"apps-powerlaw": func(tiny bool) workload {
		n, hc, iters := int64(1<<13), 100, 100
		if tiny {
			n, hc, iters = 1<<9, 8, 5
		}
		return appsWorkload{hcSources: hc, spmvIters: iters, gen: func(seed uint64) *input {
			return chunksOf(gen.ChungLu(n, 16*n, 2.1, seed))
		}}
	},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists the
// same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"partition_s", "s"}, {"op_s", "s"},
	{"edge_cut_ratio", "ratio"}, {"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reads 0 on it.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"quality.max_cut_scaled", "ratio"}, {"quality.vertex_imbalance", "ratio"},
		{"quality.edge_imbalance", "ratio"},
		{"gen.chunk_s", "s"}, {"gen.edges", "count"},
		{"dgraph.build_s", "s"}, {"dgraph.ghosts", "count"}, {"dgraph.build_elems", "count"},
		{"core.partition_s", "s"}, {"core.init_s", "s"}, {"core.vert_s", "s"}, {"core.edge_s", "s"},
		{"core.init_iters", "count"}, {"core.iters", "count"}, {"core.moved", "count"},
		{"core.iter_s.vbal", "s"}, {"core.iter_s.vref", "s"}, {"core.iter_s.ebal", "s"}, {"core.iter_s.eref", "s"},
		{"mpi.collectives", "count"}, {"mpi.elems_sent", "count"}, {"mpi.exchange_ops", "count"},
		{"mpi.reduction_ops", "count"}, {"mpi.send_ops", "count"}, {"mpi.recv_ops", "count"},
		{"mpi.tally_elems", "count"},
		{"socket.send_s", "s"}, {"socket.recv_wait_s", "s"}, {"socket.collective_wait_s", "s"},
		{"socket.frames", "count"}, {"socket.words", "count"},
		{"analytics_s", "s"}, {"analytics_async_s", "s"}, {"spmv_s", "s"}, {"spmv_async_s", "s"},
	}
	for _, eng := range []string{"sync", "async"} {
		for _, a := range analyticsList {
			d = append(d, metricDef{"analytics." + eng + "." + a.name + "_s", "s"},
				metricDef{"analytics." + eng + "." + a.name + ".iters", "count"})
		}
		d = append(d, metricDef{"analytics." + eng + ".sweep_s", "s"},
			metricDef{"analytics." + eng + ".reductions", "count"},
			metricDef{"analytics." + eng + ".elems", "count"})
		for _, l := range layouts {
			pre := "spmv." + eng + "." + l.name
			d = append(d, metricDef{pre + ".build_s", "s"}, metricDef{pre + ".iter_s", "s"},
				metricDef{pre + ".multiply_s", "s"}, metricDef{pre + ".comm_elems", "count"},
				metricDef{pre + ".reductions", "count"})
		}
	}
	for _, t := range timings {
		d = append(d, metricDef{"trace.overhead." + t, "s"})
	}
	return append(d, metricDef{"trace.unattributed_s", "s"}, metricDef{"trace.coverage", "ratio"},
		metricDef{"balance.max_degree", "count"}, metricDef{"balance.edge_budget", "count"},
		metricDef{"balance.edge_feasible", "count"})
}()

// timings are the end-to-end wall-time figures; a traced run reports
// each one's tracing overhead. The application timings exist on
// apps-powerlaw only and are per-layer metrics, since every end-to-end
// metric must exist on every workload.
var timings = []string{"setup_s", "partition_s", "op_s", "analytics_s", "analytics_async_s", "spmv_s", "spmv_async_s"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed loop runs")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that prints the per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "test-sized inputs")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for socket files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s) and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.traced = trace == 1

	r := newRunner(cfg, stderr)
	if cfg.traced {
		r.tr = newTracer()
	}
	if err := mk(cfg.tiny).run(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.traced {
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := r.tr.writeChrome(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s\n", path)
	}
	res := r.result()
	if res.Attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation ran\n", cfg.workload)
		return 1
	}
	r.report(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result assembles the JSON line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
func (r *runner) result() result {
	res := result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{},
	}
	defs := endToEnd
	if r.cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: r.value(d.name), Unit: d.unit}
	}
	return res
}

// value returns a metric's figure, 0 for a layer the workload does not
// exercise.
func (r *runner) value(name string) float64 {
	if name == "peak_heap_mb" {
		return median(r.heapMB)
	}
	if v, ok := r.exact[name]; ok {
		return v
	}
	if t, ok := strings.CutPrefix(name, "trace.overhead."); ok {
		if len(r.plain[t]) == 0 || len(r.traced[t]) == 0 {
			return 0
		}
		return median(r.traced[t]) - median(r.plain[t])
	}
	if xs, ok := r.plain[name]; ok {
		return median(xs)
	}
	if xs, ok := r.layer[name]; ok {
		return median(xs)
	}
	return 0
}

// report prints a human-readable summary: each timing's median, its
// highest percentile with ten samples above it, and the sample count,
// then the failure rate.
func (r *runner) report(w io.Writer, res result) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.cfg.workload, r.cfg.seed, r.cfg.traced)
	for _, t := range timings {
		xs := r.plain[t]
		if len(xs) == 0 {
			continue
		}
		line := fmt.Sprintf("  %-18s median %.4f s  n=%d", t, median(xs), len(xs))
		if pct, v, ok := tail(xs); ok {
			line += fmt.Sprintf("  p%.0f %.4f s", pct, v)
		} else {
			line += "  (tail needs >= 11 samples)"
		}
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %.6g %s\n", n, m.Value, m.Unit)
	}
	rate := float64(res.Failed) / math.Max(1, float64(res.Attempted))
	fmt.Fprintf(w, "  failure_rate %.4g (%d of %d operations)\n", rate, res.Failed, res.Attempted)
}
