package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro"
)

// quickExperiments are the table/figure reproductions cheap enough
// (well under a second each) to keep in -short runs; the heavy ones
// are gated behind testing.Short so `go test -short ./...` finishes in
// seconds while default runs retain full coverage.
var quickExperiments = map[string]bool{
	"table1":      true,
	"fig5":        true,
	"convergence": true,
}

// TestAllExperimentsRunSmall executes every experiment at Small scale
// and checks it produces a non-trivial table. This is the end-to-end
// integration test of the whole repository: generators, the MPI
// simulator, the distributed graph, XtraPuLP, every baseline, the
// analytics, and SpMV all execute inside it.
func TestAllExperimentsRunSmall(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !quickExperiments[name] {
				t.Skipf("%s is a heavy reproduction; skipped in -short", name)
			}
			var buf bytes.Buffer
			cfg := Config{W: &buf, Scale: Small, Seed: 1}
			if err := Run(name, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out := buf.String()
			lines := strings.Count(out, "\n")
			if lines < 3 {
				t.Fatalf("%s produced only %d lines:\n%s", name, lines, out)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", Config{W: &buf}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// A pipeline depth the exchange engine rejects must come back as an
// error on both exchange entry points, before any world runs.
func TestExchangeRejectsShallowPipeDepth(t *testing.T) {
	var buf bytes.Buffer
	if err := Exchange(Config{W: &buf, PipeDepth: 1}); err == nil {
		t.Error("Exchange: expected an error for PipeDepth 1")
	}
	if err := ExchangePartition(repro.Local(2, 1), Config{W: &buf, PipeDepth: -3}); err == nil {
		t.Error("ExchangePartition: expected an error for PipeDepth -3")
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("small"); err != nil || s != Small {
		t.Fatalf("small: %v %v", s, err)
	}
	if s, err := ParseScale("FULL"); err != nil || s != Full {
		t.Fatalf("full: %v %v", s, err)
	}
	if _, err := ParseScale("medium"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTablePrinterAlignment(t *testing.T) {
	var buf bytes.Buffer
	tab := newTable(&buf, "A", "LongHeader")
	tab.add("xxxx", "1")
	tab.add("y", "22")
	tab.flush()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "A     LongHeader") {
		t.Fatalf("header misaligned: %q", lines[0])
	}
}

func TestCorpusCoversAllClasses(t *testing.T) {
	classes := map[string]bool{}
	for _, g := range corpus(Small, 1) {
		classes[g.class] = true
	}
	for _, want := range []string{"social", "crawl", "rmat", "mesh"} {
		if !classes[want] {
			t.Errorf("corpus missing class %s", want)
		}
	}
	if len(representatives(Small, 1)) != 6 {
		t.Errorf("representatives should have 6 graphs")
	}
}
