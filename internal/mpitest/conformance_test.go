package mpitest

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/mpi"
)

func TestProcTransportConformance(t *testing.T) {
	RunTransportConformance(t, ProcFactory)
}

func TestUnixSocketTransportConformance(t *testing.T) {
	RunTransportConformance(t, UnixSocketFactory, WithChaos())
}

// faultFactories are the worlds the fault-injection tests run over, in
// a fixed order so the subtests (and any frames they send) run the
// same way every time.
type namedFactory struct {
	name    string
	factory Factory
}

func faultFactories() []namedFactory {
	return []namedFactory{{"proc", ProcFactory}, {"socket", UnixSocketFactory}}
}

// TestFaultDroppedFrame checks that a lost frame surfaces as the
// round-tag skew panic on the next receive — a detected protocol
// error, never silent corruption or a hang.
func TestFaultDroppedFrame(t *testing.T) {
	for _, nf := range faultFactories() {
		name, factory := nf.name, nf.factory
		t.Run(name, func(t *testing.T) {
			defer wantPanic(t, "pipelined rounds skewed")()
			ts := Faulty(factory(t, 2), func(rank int, ft *FaultyTransport) {
				if rank == 0 {
					ft.DropNth = 1
				}
			})
			mpi.RunWorld(ts, 1, func(c *mpi.Comm) {
				if c.Rank() == 0 {
					mpi.Isend64Tag(c, 1, mpi.RoundTag(0, 0), []int64{10}) // dropped
					mpi.Isend64Tag(c, 1, mpi.RoundTag(0, 1), []int64{11})
				} else {
					mpi.Recv64Tag(c, 0, mpi.RoundTag(0, 0)) // sees round 1's frame
				}
			})
		})
	}
}

// TestFaultDuplicatedFrame checks that a repeated frame surfaces as a
// skew panic when the receiver moves to the next round.
func TestFaultDuplicatedFrame(t *testing.T) {
	for _, nf := range faultFactories() {
		name, factory := nf.name, nf.factory
		t.Run(name, func(t *testing.T) {
			defer wantPanic(t, "pipelined rounds skewed")()
			ts := Faulty(factory(t, 2), func(rank int, ft *FaultyTransport) {
				if rank == 0 {
					ft.DupNth = 1
				}
			})
			mpi.RunWorld(ts, 1, func(c *mpi.Comm) {
				if c.Rank() == 0 {
					mpi.Isend64Tag(c, 1, mpi.RoundTag(0, 0), []int64{10}) // delivered twice
					mpi.Isend64Tag(c, 1, mpi.RoundTag(0, 1), []int64{11})
				} else {
					c.Recycle64(mpi.Recv64Tag(c, 0, mpi.RoundTag(0, 0)))
					mpi.Recv64Tag(c, 0, mpi.RoundTag(0, 1)) // sees the duplicate
				}
			})
		})
	}
}

// TestFaultDelayedFrames checks that pure timing perturbation changes
// nothing: the async engine's partition stays bit-identical to the
// undelayed reference on both transports.
func TestFaultDelayedFrames(t *testing.T) {
	ref := EngineReference(t)
	gen := EngineGenerator()
	for _, nf := range faultFactories() {
		name, factory := nf.name, nf.factory
		t.Run(name, func(t *testing.T) {
			ts := Faulty(factory(t, engineRanks), func(rank int, ft *FaultyTransport) {
				ft.Delay = 100 * time.Microsecond
			})
			var parts []int32
			mpi.RunWorld(ts, 1, func(c *mpi.Comm) {
				p, _, err := repro.XtraPuLP(repro.Joined(c), gen, EngineConfig(true))
				if err != nil {
					panic(err)
				}
				if c.Rank() == 0 {
					parts = p
				}
			})
			for v := range ref {
				if parts[v] != ref[v] {
					t.Fatalf("delayed run diverges at vertex %d: %d != %d", v, parts[v], ref[v])
				}
			}
		})
	}
}

// TestFaultPeerDeath kills one socket rank mid-round and requires
// every peer to unwind with a clean TransportFailure — no hang, no
// partial results mistaken for success.
func TestFaultPeerDeath(t *testing.T) {
	defer wantPanic(t, "transport")()
	ts := Faulty(UnixSocketFactory(t, 2), func(rank int, ft *FaultyTransport) {
		if rank == 1 {
			ft.KillAfter = 2
		}
	})
	// The run must terminate promptly; the watchdog turns a hang into
	// an immediate failure instead of a silent suite timeout.
	watchdog := time.AfterFunc(30*time.Second, func() {
		panic("TestFaultPeerDeath: world hung after peer death")
	})
	defer watchdog.Stop()
	mpi.RunWorld(ts, 1, func(c *mpi.Comm) {
		if c.Rank() == 1 {
			for seq := uint32(0); seq < 8; seq++ {
				mpi.Isend64Tag(c, 0, mpi.RoundTag(0, seq), []int64{int64(seq)})
			}
		} else {
			for seq := uint32(0); seq < 8; seq++ {
				c.Recycle64(mpi.Recv64Tag(c, 1, mpi.RoundTag(0, seq)))
			}
		}
	})
}

// TestSocketMultiProcess re-execs the test binary as one OS process
// per rank, rendezvouses them over Unix sockets with the REPRO_*
// environment a launcher would set, runs the async partitioner in each
// worker, and requires every worker's gathered partition to be
// bit-identical to the single-process in-process reference.
func TestSocketMultiProcess(t *testing.T) {
	if os.Getenv("REPRO_MPITEST_WORKER") == "1" {
		multiProcessWorker(t)
		return
	}
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	ref := EngineReference(t)
	dir := t.TempDir()
	addrs := make([]string, engineRanks)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("rank%d.sock", r))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmds := make([]*exec.Cmd, engineRanks)
	outs := make([]string, engineRanks)
	for r := 0; r < engineRanks; r++ {
		outs[r] = filepath.Join(dir, fmt.Sprintf("parts%d.txt", r))
		cmd := exec.CommandContext(ctx, exe, "-test.run=^TestSocketMultiProcess$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"REPRO_MPITEST_WORKER=1",
			"REPRO_MPITEST_OUT="+outs[r],
			mpi.EnvRank+"="+strconv.Itoa(r),
			mpi.EnvSize+"="+strconv.Itoa(engineRanks),
			mpi.EnvNet+"=unix",
			mpi.EnvAddrs+"="+strings.Join(addrs, ","),
			mpi.EnvTimeout+"=60s",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", r, err)
		}
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("worker %d: %v", r, err)
		}
	}
	if t.Failed() {
		return
	}
	for r := 0; r < engineRanks; r++ {
		raw, err := os.ReadFile(outs[r])
		if err != nil {
			t.Fatalf("worker %d output: %v", r, err)
		}
		fields := strings.Fields(string(raw))
		if len(fields) != len(ref) {
			t.Fatalf("worker %d: %d parts, want %d", r, len(fields), len(ref))
		}
		for v, f := range fields {
			p, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("worker %d vertex %d: %v", r, v, err)
			}
			if int32(p) != ref[v] {
				t.Fatalf("worker %d partition diverges from in-process reference at vertex %d: %d != %d", r, v, p, ref[v])
			}
		}
	}
}

// TestSocketMultiProcessChaos is the multi-process acceptance run for
// the chaos tier: four real worker processes rendezvous through
// ChaosProxy instances that reset the first connection to each of two
// ranks mid-handshake. The retrying rendezvous must absorb the faults
// and every worker's partition must stay bit-identical to the
// in-process reference — the chaos is fully transparent.
func TestSocketMultiProcessChaos(t *testing.T) {
	if os.Getenv("REPRO_MPITEST_WORKER") == "1" {
		multiProcessWorker(t)
		return
	}
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	ref := EngineReference(t)
	dir := t.TempDir()
	real := make([]string, engineRanks)
	for r := range real {
		real[r] = filepath.Join(dir, fmt.Sprintf("rank%d.sock", r))
	}
	// Proxy every rank's address; reset the first handshake into ranks
	// 0 and 1, relay the rest cleanly.
	proxied := make([]string, engineRanks)
	for r := range real {
		plan := ChaosPlan{Kind: ChaosReset, Seed: int64(100 + r), MinBytes: 1, MaxBytes: 20, Once: true}
		if r >= 2 {
			plan = ChaosPlan{Kind: ChaosReset, Seed: int64(100 + r), MinBytes: 1 << 30, MaxBytes: 1 << 30} // fault point never reached
		}
		proxied[r] = NewChaosProxy(t, "unix", real[r], plan).Addr()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmds := make([]*exec.Cmd, engineRanks)
	outs := make([]string, engineRanks)
	for r := 0; r < engineRanks; r++ {
		outs[r] = filepath.Join(dir, fmt.Sprintf("parts%d.txt", r))
		// Worker r listens on its real address and dials everyone else
		// through the proxies.
		addrs := make([]string, engineRanks)
		for j := range addrs {
			if j == r {
				addrs[j] = real[j]
			} else {
				addrs[j] = proxied[j]
			}
		}
		cmd := exec.CommandContext(ctx, exe, "-test.run=^TestSocketMultiProcessChaos$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"REPRO_MPITEST_WORKER=1",
			"REPRO_MPITEST_OUT="+outs[r],
			mpi.EnvRank+"="+strconv.Itoa(r),
			mpi.EnvSize+"="+strconv.Itoa(engineRanks),
			mpi.EnvNet+"=unix",
			mpi.EnvAddrs+"="+strings.Join(addrs, ","),
			mpi.EnvTimeout+"=60s",
			mpi.EnvRetryBase+"=1ms",
			mpi.EnvHeartbeat+"=500ms",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", r, err)
		}
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("worker %d: %v", r, err)
		}
	}
	if t.Failed() {
		return
	}
	for r := 0; r < engineRanks; r++ {
		raw, err := os.ReadFile(outs[r])
		if err != nil {
			t.Fatalf("worker %d output: %v", r, err)
		}
		fields := strings.Fields(string(raw))
		if len(fields) != len(ref) {
			t.Fatalf("worker %d: %d parts, want %d", r, len(fields), len(ref))
		}
		for v, f := range fields {
			p, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("worker %d vertex %d: %v", r, v, err)
			}
			if int32(p) != ref[v] {
				t.Fatalf("worker %d partition diverges from in-process reference at vertex %d under chaos: %d != %d", r, v, p, ref[v])
			}
		}
	}
}

// multiProcessWorker is one rank of the multi-process test: rendezvous
// from the environment, partition, dump the gathered result.
func multiProcessWorker(t *testing.T) {
	cfg, err := mpi.SocketConfigFromEnv()
	if err != nil {
		t.Fatalf("worker env: %v", err)
	}
	tr, err := mpi.DialSocket(cfg)
	if err != nil {
		t.Fatalf("worker rendezvous: %v", err)
	}
	defer tr.Close()
	c := mpi.NewComm(tr, 1)
	parts, _, err := repro.XtraPuLP(repro.Joined(c), EngineGenerator(), EngineConfig(true))
	if err != nil {
		t.Fatalf("worker partition: %v", err)
	}
	var sb strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&sb, "%d\n", p)
	}
	if err := os.WriteFile(os.Getenv("REPRO_MPITEST_OUT"), []byte(sb.String()), 0o644); err != nil {
		t.Fatalf("worker output: %v", err)
	}
}
