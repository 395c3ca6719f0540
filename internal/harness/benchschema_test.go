package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/mpi"
)

// The exchange experiment's JSON artifact must round-trip through the
// schema validator: this is the end-to-end guarantee behind CI's
// benchcheck gate (generate → validate → upload).
func TestExchangeJSONSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("exchange is a heavy reproduction; skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "BENCH_exchange.json")
	var buf bytes.Buffer
	if err := Exchange(Config{W: &buf, Scale: Small, Seed: 1, JSONPath: path}); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if err := ValidateExchangeJSON(path); err != nil {
		t.Fatalf("generated artifact fails its own schema: %v", err)
	}
}

// ExchangePartition's artifact must validate as a partition-only
// socket document. The function is collective over any joined world,
// so an in-process world drives it here; the real socket world is exercised
// by cmd/reprorun's tests and CI's reprorun-launched bench run.
func TestExchangeSocketJSONSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full partition-path comparison; skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "BENCH_exchange_socket.json")
	var buf bytes.Buffer
	var runErr error
	mpi.Run(4, func(c *mpi.Comm) {
		err := ExchangePartition(repro.Joined(c), Config{W: &buf, Scale: Small, Seed: 1, JSONPath: path})
		if c.Rank() == 0 {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatalf("exchange socket: %v", runErr)
	}
	if err := ValidateExchangeJSON(path); err != nil {
		t.Fatalf("generated socket artifact fails its own schema: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"transport": "socket"`) {
		t.Fatalf("artifact not stamped with the socket substrate:\n%s", raw)
	}
	if strings.Contains(string(raw), `"path": "analytics"`) || strings.Contains(string(raw), `"path": "spmv"`) {
		t.Fatalf("socket artifact carries paths the socket harness cannot measure:\n%s", raw)
	}
}

// Corrupted or incomplete artifacts must be rejected with a message
// naming the problem.
func TestExchangeJSONSchemaRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, content, want string
	}{
		{"truncated.json", `{"experiment":"exchange","rows":[{"path":"partition"`, "unexpected end"},
		{"wrongexp.json", `{"experiment":"table2","rows":[{"path":"spmv"}]}`, `want "exchange"`},
		{"notransport.json", `{"experiment":"exchange","rows":[{"path":"spmv"}]}`, `transport ""`},
		{"badtransport.json", `{"experiment":"exchange","transport":"carrier-pigeon","rows":[{"path":"spmv"}]}`,
			`transport "carrier-pigeon"`},
		{"norows.json", `{"experiment":"exchange","transport":"proc","rows":[]}`, "no measurement rows"},
		{"procpartonly.json", `{"experiment":"exchange","transport":"proc","pipeDepth":2,"rows":[` +
			`{"path":"partition","graph":"g","mode":"sync","threads":1,"reductions":1,"edgeCut":0.5}]}`, "no analytics rows"},
		{"socketnopart.json", `{"experiment":"exchange","transport":"socket","pipeDepth":2,"rows":[` +
			`{"path":"spmv","mode":"sync","threads":1,"sweepSeconds":0.1,"reductions":1}]}`, "no partition rows"},
		{"socketbadpart.json", `{"experiment":"exchange","transport":"socket","pipeDepth":2,"rows":[` +
			`{"path":"partition","graph":"g","mode":"sync","threads":1}]}`, "missing reductions or edgeCut"},
		{"nodepth.json", `{"experiment":"exchange","transport":"proc","rows":[{"path":"spmv","mode":"sync"}]}`, "pipeDepth 0"},
		{"nothreads.json", `{"experiment":"exchange","transport":"proc","pipeDepth":2,"rows":[` +
			`{"path":"partition","graph":"g","mode":"sync","reductions":1,"edgeCut":0.5}]}`, "threads 0"},
		{"spmvnored.json", `{"experiment":"exchange","transport":"proc","pipeDepth":2,"rows":[` +
			`{"path":"spmv","mode":"sync","threads":1,"sweepSeconds":0.1}]}`, "missing reductions"},
		{"spmvnosweep.json", `{"experiment":"exchange","transport":"proc","pipeDepth":2,"rows":[` +
			`{"path":"spmv","mode":"sync","threads":1,"reductions":1}]}`, "sweepSeconds"},
		{"nosweep.json", `{"experiment":"exchange","transport":"proc","pipeDepth":2,"rows":[{"path":"analytics","mode":"sync","threads":4,` +
			`"reductions":1,"allocsPerRound":0,"hcWaves":1,"hcReductions":5,"hcSecPerSource":0.1}]}`, "sweepSeconds"},
		{"shallowpipe.json", `{"experiment":"exchange","transport":"proc","pipeDepth":2,"rows":[{"path":"analytics","mode":"async-delta","threads":1,"sweepSeconds":0.1,` +
			`"reductions":1,"allocsPerRound":0,"pipelineDepth":1,"hcWaves":1,"hcReductions":0,"hcSecPerSource":0.1}]}`, "pipelineDepth 1"},
		{"nohc.json", `{"experiment":"exchange","transport":"proc","pipeDepth":2,"rows":[{"path":"analytics","mode":"sync","threads":1,"sweepSeconds":0.1,` +
			`"reductions":1,"allocsPerRound":0}]}`, "missing hcWaves"},
		{"wrongwaves.json", `{"experiment":"exchange","transport":"proc","pipeDepth":8,"rows":[{"path":"analytics","mode":"async-delta","threads":1,"sweepSeconds":0.1,` +
			`"reductions":1,"allocsPerRound":0,"pipelineDepth":8,"hcWaves":2,"hcReductions":0,"hcSecPerSource":0.1}]}`, "hcWaves 2, want 4"},
		{"nosyncbaseline.json", `{"experiment":"exchange","transport":"proc","pipeDepth":4,"rows":[{"path":"analytics","graph":"g","mode":"async-delta","threads":1,"sweepSeconds":0.1,` +
			`"reductions":1,"allocsPerRound":0,"pipelineDepth":4,"hcWaves":2,"hcReductions":0,"hcSecPerSource":0.1}]}`,
			"no preceding sync analytics row"},
		{"hcnotfewer.json", `{"experiment":"exchange","transport":"proc","pipeDepth":4,"rows":[` +
			`{"path":"analytics","graph":"g","mode":"sync","threads":1,"sweepSeconds":0.1,"reductions":1,"allocsPerRound":0,"hcWaves":1,"hcReductions":5,"hcSecPerSource":0.1},` +
			`{"path":"analytics","graph":"g","mode":"async-delta","threads":1,"sweepSeconds":0.1,"reductions":1,"allocsPerRound":0,"pipelineDepth":4,"hcWaves":2,"hcReductions":5,"hcSecPerSource":0.1}]}`,
			"hcReductions 5 not below sync row's 5"},
	}
	for _, tc := range cases {
		err := ValidateExchangeJSON(write(tc.name, tc.content))
		if err == nil {
			t.Errorf("%s: validator accepted a broken artifact", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The socket harness's partition-only shape is the one relaxation:
	// the same rows that fail a proc artifact above must validate when
	// stamped with the socket substrate.
	socketOK := write("socketpartonly.json", `{"experiment":"exchange","transport":"socket","pipeDepth":2,"rows":[`+
		`{"path":"partition","graph":"g","mode":"sync","threads":1,"reductions":1,"edgeCut":0.5},`+
		`{"path":"partition","graph":"g","mode":"async-delta","threads":1,"reductions":1,"edgeCut":0.5}]}`)
	if err := ValidateExchangeJSON(socketOK); err != nil {
		t.Errorf("partition-only socket artifact rejected: %v", err)
	}
}

// writeExchangeJSON must surface write/close failures instead of
// leaving a truncated artifact behind as a success: pointing it at a
// directory makes Create fail; a missing parent makes it fail too.
func TestWriteExchangeJSONPropagatesErrors(t *testing.T) {
	cfg := Config{JSONPath: t.TempDir()} // a directory: Create must fail
	if err := writeExchangeJSON(cfg, []ExchangeRow{{Path: "spmv"}}); err == nil {
		t.Error("expected error writing JSON to a directory path")
	}
	cfg.JSONPath = filepath.Join(t.TempDir(), "missing", "out.json")
	if err := writeExchangeJSON(cfg, []ExchangeRow{{Path: "spmv"}}); err == nil {
		t.Error("expected error writing JSON under a missing directory")
	}
}

// benchcheck -against must pass an artifact identical to the committed
// one and fail on any drift in a deterministic column or in the row
// set.
func TestCompareExchangeJSON(t *testing.T) {
	committed := filepath.Join("..", "..", "bench", "BENCH_exchange.json")
	raw, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, mutate func(doc *exchangeDoc)) string {
		t.Helper()
		var doc exchangeDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		mutate(&doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	identical := write("identical.json", func(*exchangeDoc) {})
	if err := CompareExchangeJSON(committed, identical); err != nil {
		t.Errorf("identical artifact: %v", err)
	}
	// Host-dependent columns never count as drift.
	retimed := write("retimed.json", func(doc *exchangeDoc) {
		for i := range doc.Rows {
			doc.Rows[i].WallSeconds *= 3
			doc.Rows[i].SweepSeconds = nil
			doc.Rows[i].AllocsPerRound = nil
		}
	})
	if err := CompareExchangeJSON(committed, retimed); err != nil {
		t.Errorf("retimed artifact: %v", err)
	}
	mutated := write("mutated.json", func(doc *exchangeDoc) {
		for i := range doc.Rows {
			if doc.Rows[i].Reductions != nil {
				doc.Rows[i].Reductions = ptr(*doc.Rows[i].Reductions + 1)
				return
			}
		}
		t.Fatal("no row carries reductions")
	})
	if err := CompareExchangeJSON(committed, mutated); err == nil || !strings.Contains(err.Error(), "reductions") {
		t.Errorf("one mutated reductions cell: got %v, want a reductions drift", err)
	}
	missing := write("missing.json", func(doc *exchangeDoc) {
		doc.Rows = doc.Rows[1:]
	})
	if err := CompareExchangeJSON(committed, missing); err == nil || !strings.Contains(err.Error(), "row missing") {
		t.Errorf("one row missing: got %v, want a missing-row drift", err)
	}
}
