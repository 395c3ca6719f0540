package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// runTiny runs one workload at test size and decodes its result line.
func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
		"--tiny", "--workdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s --trace %s: exit %d\n%s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return res
}

// Every workload prints every metric of its run kind with its unit, and
// every check passes.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				res := runTiny(t, w, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				} else if c := res.Metrics["trace.coverage"].Value; c < 0.5 {
					// Full-size operations are covered to 98% and more;
					// at test size the fixed cost of starting the ranks
					// weighs more.
					t.Errorf("layer spans cover %.3f of the operation, want >= 0.5", c)
				}
			})
		}
	}
}

// BENCHMARK.json describes exactly the workloads and metrics the program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		m := map[string]string{}
		for _, g := range got {
			m[g.Name] = g.Unit
		}
		if len(m) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(m), len(want))
		}
		for _, d := range want {
			if m[d.name] != d.unit {
				t.Errorf("%s: %s has unit %q, program %q", kind, d.name, m[d.name], d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// Timing the socket transport leaves the partition bit-identical, on the
// socket world and against the in-process world.
func TestSocketWrapperKeepsPartition(t *testing.T) {
	w := workloads["mesh-p8-socket"](true).(partitionWorkload)
	in := w.gen(5)
	if err := in.buildShared(); err != nil {
		t.Fatal(err)
	}
	job := partJob{in: in, parts: w.parts, async: w.async}
	r := newRunner(config{}, os.Stderr)
	world, err := newSocketWorld(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer world.close()

	hash := func(ts []mpi.Transport, tr *tracer, rec *iterRecorder) uint64 {
		out, err := job.run(r, ts, tr, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.check(out); err != nil {
			t.Fatal(err)
		}
		return hashParts(out.parts)
	}
	bare := hash(world.ts, nil, nil)
	tt := &transportTimes{}
	wrapped := hash(wrapTransports(world.ts, tt), newTracer(), &iterRecorder{})
	proc := hash(mpi.NewProcWorld(ranks), nil, nil)
	if bare != wrapped || bare != proc {
		t.Fatalf("partition hashes: socket %x, timed socket %x, proc %x", bare, wrapped, proc)
	}
	if tt.frames.Load() == 0 || tt.recvNs.Load() == 0 {
		t.Errorf("the wrapper timed nothing: %d frames, %d ns receiving", tt.frames.Load(), tt.recvNs.Load())
	}
}

// A corrupted partition, out of range or merely different, counts as a
// failed operation.
func TestCorruptedPartitionIsAFailure(t *testing.T) {
	w := workloads["rmat-p256"](true).(partitionWorkload)
	in := w.gen(7)
	if err := in.buildShared(); err != nil {
		t.Fatal(err)
	}
	job := partJob{in: in, parts: w.parts}
	r := newRunner(config{}, &bytes.Buffer{})
	out, err := job.run(r, mpi.NewProcWorld(ranks), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first uint64
	r.op("partition", job.verify(out, &first))

	outOfRange := out
	outOfRange.parts = append([]int32(nil), out.parts...)
	outOfRange.parts[0] = int32(w.parts)
	r.op("partition", job.verify(outOfRange, &first))

	moved := out
	moved.parts = append([]int32(nil), out.parts...)
	moved.parts[0] = (moved.parts[0] + 1) % int32(w.parts)
	r.op("partition", job.verify(moved, &first))

	res := r.result()
	if res.Attempted != 3 || res.Failed != 2 || res.Correct {
		t.Fatalf("attempted=%d failed=%d correct=%v, want 3, 2, false", res.Attempted, res.Failed, res.Correct)
	}
}
