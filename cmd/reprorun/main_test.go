package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/mpi"
	"repro/internal/mpitest"
)

// TestMain doubles as the worker executable: the supervisor tests
// re-exec this test binary with REPRORUN_TEST_WORKER=1 and the REPRO_*
// rendezvous environment, turning it into one rank of a socket world.
func TestMain(m *testing.M) {
	if os.Getenv("REPRORUN_TEST_WORKER") == "1" {
		os.Exit(testWorkerMain())
	}
	os.Exit(m.Run())
}

// testWorkerMain is one rank of the supervised-relaunch test: it
// rendezvouses from the environment, optionally dies right after the
// rendezvous (consuming a marker file, so only the first attempt is
// disturbed), otherwise runs the conformance engine workload and — at
// rank 0 — writes the gathered partition.
func testWorkerMain() int {
	cfg, err := mpi.SocketConfigFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker env:", err)
		return 1
	}
	tr, err := mpi.DialSocket(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker rendezvous:", err)
		return 1
	}
	if marker := os.Getenv("REPRORUN_TEST_DIE"); marker != "" && cfg.Rank == 2 {
		if _, err := os.Stat(marker); err == nil {
			// The marker must actually be consumed, or every relaunch
			// re-injects the fault and the test loops to budget
			// exhaustion.
			if err := os.Remove(marker); err != nil {
				fmt.Fprintln(os.Stderr, "worker: consuming death marker:", err)
				return 1
			}
			fmt.Fprintln(os.Stderr, "worker: injected post-rendezvous death")
			return 3 // no Close: peers must see EOF or the watchdog, never a hang
		}
	}
	defer tr.Close()
	c := mpi.NewComm(tr, 1)
	parts, _, err := repro.XtraPuLP(repro.Joined(c), mpitest.EngineGenerator(), mpitest.EngineConfig(true))
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker partition:", err)
		return 1
	}
	if cfg.Rank == 0 {
		var sb strings.Builder
		for _, p := range parts {
			fmt.Fprintf(&sb, "%d\n", p)
		}
		if err := os.WriteFile(os.Getenv("REPRORUN_TEST_OUT"), []byte(sb.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "worker output:", err)
			return 1
		}
	}
	return 0
}

// TestSuperviseRelaunchBitIdentical is the acceptance scenario: a
// 4-rank world whose rank 2 dies right after rendezvous on the first
// attempt must be torn down as a unit, relaunched by the supervisor,
// and produce a partition bit-identical to the undisturbed in-process
// reference at the same seeds.
func TestSuperviseRelaunchBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	ref := mpitest.EngineReference(t)
	dir := t.TempDir()
	marker := filepath.Join(dir, "die-once")
	if err := os.WriteFile(marker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "parts.txt")
	var relayBuf, errBuf bytes.Buffer
	spec := launchSpec{
		n:        4,
		network:  "unix",
		restarts: 2,
		env: []string{
			"REPRORUN_TEST_WORKER=1",
			"REPRORUN_TEST_OUT=" + out,
			"REPRORUN_TEST_DIE=" + marker,
			mpi.EnvTimeout + "=60s",
			mpi.EnvHeartbeat + "=250ms",
		},
		argv:   []string{exe},
		stdout: &relayBuf,
		stderr: &errBuf,
	}
	if code := supervise(spec); code != 0 {
		t.Fatalf("supervise exit code %d\nrelay:\n%s\nsupervisor:\n%s", code, relayBuf.String(), errBuf.String())
	}
	log := errBuf.String()
	if !strings.Contains(log, "attempt 1/3") || !strings.Contains(log, "succeeded on attempt 2") {
		t.Fatalf("supervisor log does not show a failed first attempt and a successful relaunch:\n%s", log)
	}
	if _, err := os.Stat(marker); !os.IsNotExist(err) {
		t.Fatalf("death marker not consumed (stat err %v): the fault was never injected", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("relaunched world wrote no partition: %v\nsupervisor:\n%s", err, log)
	}
	fields := strings.Fields(string(raw))
	if len(fields) != len(ref) {
		t.Fatalf("%d parts, want %d", len(fields), len(ref))
	}
	for v, f := range fields {
		p, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("vertex %d: %v", v, err)
		}
		if int32(p) != ref[v] {
			t.Fatalf("relaunched partition diverges from undisturbed reference at vertex %d: %d != %d", v, p, ref[v])
		}
	}
}

// TestSuperviseExitCodePropagation pins the launcher's failure
// reporting: once the restart budget is exhausted the exit status is
// the first failing worker's own code and stderr names the culprit
// rank on every attempt.
func TestSuperviseExitCodePropagation(t *testing.T) {
	var errBuf bytes.Buffer
	spec := launchSpec{
		n:        2,
		network:  "unix",
		restarts: 1,
		argv:     []string{"/bin/sh", "-c", `if [ "$REPRO_RANK" = "1" ]; then exit 7; fi; sleep 60`},
		stdout:   io.Discard,
		stderr:   &errBuf,
	}
	if code := supervise(spec); code != 7 {
		t.Fatalf("supervise exit code %d, want the failing worker's 7\n%s", code, errBuf.String())
	}
	log := errBuf.String()
	for _, want := range []string{"rank 1 failed", "exit code 7", "attempt 1/2", "attempt 2/2", "restart budget exhausted"} {
		if !strings.Contains(log, want) {
			t.Fatalf("supervisor log missing %q:\n%s", want, log)
		}
	}
}

// TestSuperviseSuccessNoRestart checks the quiet path: a clean world
// exits 0 with no supervisor chatter and the rank-prefixed relay.
func TestSuperviseSuccessNoRestart(t *testing.T) {
	var relayBuf, errBuf bytes.Buffer
	spec := launchSpec{
		n:        2,
		network:  "unix",
		restarts: 3,
		argv:     []string{"/bin/sh", "-c", `echo "hello from $REPRO_RANK"`},
		stdout:   &relayBuf,
		stderr:   &errBuf,
	}
	if code := supervise(spec); code != 0 {
		t.Fatalf("supervise exit code %d\n%s", code, errBuf.String())
	}
	if errBuf.Len() != 0 {
		t.Fatalf("clean run produced supervisor chatter:\n%s", errBuf.String())
	}
	for _, want := range []string{"[rank 0] hello from 0", "[rank 1] hello from 1"} {
		if !strings.Contains(relayBuf.String(), want) {
			t.Fatalf("relay missing %q:\n%s", want, relayBuf.String())
		}
	}
}
