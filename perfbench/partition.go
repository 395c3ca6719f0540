package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/rng"
)

// ranks is the world size of every workload: two ranks of one thread
// each, one per core of the two-core machine the sizes were chosen on.
// The partitioner runs one thread because its partitions reproduce bit
// for bit only at a fixed thread count.
const ranks = 2

// partSeed seeds the partitioner and the hashed distribution. It is fixed:
// the benchmark seed varies the generated graph, not the program.
const partSeed = 1

// input is one generated graph: each rank's chunk of the edge list, and
// the same edges as a shared-memory graph, built outside every timing,
// for the output checks and for SpMV.
type input struct {
	n      int64
	chunks [ranks][]graph.Edge
	shared *graph.Graph
}

func (in *input) edges() int64 {
	var m int64
	for _, c := range in.chunks {
		m += int64(len(c))
	}
	return m
}

// chunksOf cuts a generator's edge list the way each rank would.
func chunksOf(g *gen.Generator) *input {
	in := &input{n: g.N}
	for r := range in.chunks {
		in.chunks[r] = g.EdgesChunk(r, ranks)
	}
	return in
}

// buildShared builds in.shared from the chunks.
func (in *input) buildShared() error {
	all := make([]graph.Edge, 0, in.edges())
	for _, c := range in.chunks {
		all = append(all, c...)
	}
	g, err := graph.FromEdges(in.n, all)
	in.shared = g
	return err
}

// drop removes each edge with probability frac, drawn from seed, so a
// regular mesh differs from seed to seed while keeping its numbering and
// therefore its locality.
func (in *input) drop(seed uint64, frac float64) {
	rnd := rng.New(seed)
	for r, c := range in.chunks {
		kept := c[:0]
		for _, e := range c {
			if rnd.Float64() >= frac {
				kept = append(kept, e)
			}
		}
		in.chunks[r] = kept
	}
}

// partJob is one distributed partitioning call.
type partJob struct {
	in    *input
	parts int
	async bool
}

// partOut is what one partitioning call returns on rank 0, plus counters
// summed over ranks.
type partOut struct {
	parts     []int32
	rep       core.Report
	ghosts    int64
	build     mpi.Stats // during dgraph.FromEdgeChunks
	total     mpi.Stats // during the whole call
	partStart time.Time // rank 0's entry into core.Partition
}

// run builds the distributed graph from the chunks, partitions it and
// gathers the global partition: the facade's XtraPuLPComm body, with a
// span around each layer call. rec, when set, receives core's
// per-iteration events on rank 0; the same setting reaches every rank.
func (j partJob) run(r *runner, ts []mpi.Transport, tr *tracer, rec *iterRecorder) (partOut, error) {
	var out partOut
	var errs [ranks]error
	var builds, totals [ranks]mpi.Stats
	var ghosts [ranks]int64
	mpi.RunWorld(ts, 1, func(c *mpi.Comm) {
		rank := c.Rank()
		s0 := c.Stats()
		tr.begin(rank, "dgraph.build")
		dg, err := dgraph.FromEdgeChunks(c, j.in.n, j.in.chunks[rank], dgraph.HashDist{P: c.Size(), Seed: partSeed})
		tr.end(rank)
		if err != nil {
			// Construction errors come from the shared input, so every
			// rank returns here and no collective is left half-entered.
			errs[rank] = err
			return
		}
		builds[rank] = statsSub(c.Stats(), s0)
		ghosts[rank] = int64(dg.NGhost)
		if rank == 0 {
			r.heap()
		}

		opt := core.DefaultOptions(j.parts)
		opt.Seed = partSeed
		if j.async {
			opt.Exchange = core.ExchangeAsyncDelta
		}
		if rec != nil {
			opt.Trace = rec.hook // called on rank 0 only
		}
		tr.begin(rank, "core.partition")
		start := time.Now()
		local, rep, err := core.Partition(dg, opt)
		if rec != nil && rank == 0 {
			rec.emit(tr, rank, start.Add(rep.InitTime))
		}
		tr.end(rank)
		if err != nil {
			dg.Close()
			errs[rank] = err
			return
		}
		if rank == 0 {
			r.heap()
		}

		tr.begin(rank, "dgraph.gather")
		full := dg.GatherGlobal(local[:dg.NLocal])
		tr.end(rank)
		dg.Close()
		totals[rank] = statsSub(c.Stats(), s0)
		if rank == 0 {
			r.heap()
			out.parts, out.rep, out.partStart = full, rep, start
		}
	})
	for _, err := range errs {
		if err != nil {
			return partOut{}, err
		}
	}
	out.build, out.total = statsSum(builds[:]), statsSum(totals[:])
	out.ghosts = ghosts[0] + ghosts[1]
	return out, nil
}

// check verifies a partition: every vertex has a part in [0, p), and the
// quality the ranks computed collectively equals partition.Evaluate on
// the shared-memory graph.
func (j partJob) check(out partOut) error {
	for v, pt := range out.parts {
		if pt < 0 || int(pt) >= j.parts {
			return fmt.Errorf("vertex %d has part %d outside [0,%d)", v, pt, j.parts)
		}
	}
	return sameQuality(out.rep.Quality, partition.Evaluate(j.in.shared, out.parts, j.parts))
}

// verify checks a partition and that its hash matches the first
// repetition's, recording the hash when *first is still 0.
func (j partJob) verify(out partOut, first *uint64) error {
	if err := j.check(out); err != nil {
		return err
	}
	h := hashParts(out.parts)
	if *first == 0 {
		*first = h
	} else if h != *first {
		return fmt.Errorf("partition hash %x differs from the first repetition's %x", h, *first)
	}
	return nil
}

// sameQuality compares the collective quality with the shared-memory
// one: counts exactly, ratios to a relative 1e-12.
func sameQuality(got, want partition.Quality) error {
	if got.NumParts != want.NumParts || got.CutEdges != want.CutEdges || got.MaxPartCut != want.MaxPartCut {
		return fmt.Errorf("quality: parts/cut/max-cut %d/%d/%d, evaluated %d/%d/%d",
			got.NumParts, got.CutEdges, got.MaxPartCut, want.NumParts, want.CutEdges, want.MaxPartCut)
	}
	for i := range want.PartVerts {
		if got.PartVerts[i] != want.PartVerts[i] || got.PartDegrees[i] != want.PartDegrees[i] || got.PartCut[i] != want.PartCut[i] {
			return fmt.Errorf("quality: part %d sizes differ from the evaluated partition", i)
		}
	}
	ratios := [][2]float64{
		{got.EdgeCutRatio, want.EdgeCutRatio}, {got.ScaledMaxCutRatio, want.ScaledMaxCutRatio},
		{got.VertexImbalance, want.VertexImbalance}, {got.EdgeImbalance, want.EdgeImbalance},
	}
	for _, r := range ratios {
		if math.Abs(r[0]-r[1]) > 1e-12*math.Max(1, math.Abs(r[1])) {
			return fmt.Errorf("quality: ratio %v, evaluated %v", r[0], r[1])
		}
	}
	return nil
}

// noteQuality records the paper's two objectives and two constraints.
func (r *runner) noteQuality(q partition.Quality) {
	r.exact["edge_cut_ratio"] = q.EdgeCutRatio
	r.exact["quality.max_cut_scaled"] = q.ScaledMaxCutRatio
	r.exact["quality.vertex_imbalance"] = q.VertexImbalance
	r.exact["quality.edge_imbalance"] = q.EdgeImbalance
}

// noteBalance records whether edge balance is feasible at all: no part
// can hold less than the largest vertex's degree, so when that degree
// exceeds the per-part budget (1+ε)·2m/p the constraint is infeasible
// rather than violated.
func (r *runner) noteBalance(g *graph.Graph, p int) {
	dmax := g.MaxDegree()
	budget := (1 + core.DefaultOptions(p).EdgeImbalance) * float64(g.NumArcs()) / float64(p)
	feasible := 0.0
	if float64(dmax) <= budget {
		feasible = 1
	}
	r.exact["balance.max_degree"] = float64(dmax)
	r.exact["balance.edge_budget"] = budget
	r.exact["balance.edge_feasible"] = feasible
}

// notePartition records the per-layer figures of one traced partition.
func (r *runner) notePartition(out partOut, tr *tracer, since time.Time, rec *iterRecorder) {
	r.noteDur("dgraph.build_s", tr.total(0, "dgraph.build", since))
	r.note("dgraph.ghosts", float64(out.ghosts))
	r.note("dgraph.build_elems", float64(out.build.ElemsSent))
	r.noteDur("core.partition_s", out.rep.TotalTime)
	r.noteDur("core.init_s", out.rep.InitTime)
	r.noteDur("core.vert_s", out.rep.VertTime)
	r.noteDur("core.edge_s", out.rep.EdgeTime)
	r.note("core.init_iters", float64(out.rep.InitIters))
	r.note("core.iters", float64(len(rec.stages)))
	r.note("core.moved", float64(rec.moved))
	for _, st := range []string{"vbal", "vref", "ebal", "eref"} {
		r.noteDur("core.iter_s."+st, tr.total(0, "core.iter."+st, out.partStart))
	}
	r.noteStats(out.total)
}

// partitionWorkload is rmat-p256 or mesh-p8-socket: the timed operation
// is one partition of a graph generated in set-up.
type partitionWorkload struct {
	parts  int
	socket bool // form a Unix-socket world instead of an in-process one
	async  bool // async delta exchange instead of Alltoallv/Allreduce
	gen    func(seed uint64) *input
}

func (w partitionWorkload) run(r *runner) error {
	var in *input
	var world *socketWorld
	defer func() { world.close() }()
	var job partJob
	var firstHash uint64
	err := r.loop(func(traced bool) error {
		tr := r.tracerFor(traced)
		world.close()

		// Set-up: form the world, generate the edge chunks.
		t0 := time.Now()
		if w.socket {
			tr.begin(loopTrack, "mpi.socket_world")
			var err error
			world, err = newSocketWorld(r.cfg.workdir)
			tr.end(loopTrack)
			if err != nil {
				return err
			}
		}
		tr.begin(loopTrack, "gen.chunks")
		g0 := time.Now()
		next := w.gen(r.cfg.seed)
		gd := time.Since(g0)
		tr.end(loopTrack)
		r.time("setup_s", traced, time.Since(t0))
		if traced {
			r.noteDur("gen.chunk_s", gd)
			r.note("gen.edges", float64(next.edges()))
		}
		if in == nil {
			if err := next.buildShared(); err != nil {
				return err
			}
			r.noteBalance(next.shared, w.parts)
		} else {
			// The same seed gives the same graph; the hash check
			// would catch a generator that does not.
			next.shared = in.shared
		}
		in = next
		job = partJob{in: in, parts: w.parts, async: w.async}

		// The timed operation: one partition.
		ts := mpi.NewProcWorld(ranks)
		if w.socket {
			ts = world.ts
		}
		var tt *transportTimes
		var rec *iterRecorder
		if traced {
			rec = &iterRecorder{}
			if w.socket {
				tt = &transportTimes{}
				ts = wrapTransports(ts, tt)
			}
		}
		var out partOut
		r.heapReset()
		t0 = time.Now()
		err := protect(func() {
			var err error
			out, err = job.run(r, ts, tr, rec)
			if err != nil {
				panic(err)
			}
		})
		wall := time.Since(t0)
		if err == nil {
			err = job.verify(out, &firstHash)
		}
		r.op("partition", err)
		if err != nil {
			return nil
		}
		r.time("partition_s", traced, wall)
		r.time("op_s", traced, wall)
		r.heapSample()
		r.noteQuality(out.rep.Quality)
		if !traced {
			return nil
		}
		r.notePartition(out, tr, t0, rec)
		if tt != nil {
			r.noteDur("socket.send_s", time.Duration(tt.sendNs.Load()))
			r.noteDur("socket.recv_wait_s", time.Duration(tt.recvNs.Load()))
			r.noteDur("socket.collective_wait_s", time.Duration(tt.collNs.Load()))
			r.note("socket.frames", float64(tt.frames.Load()))
			r.note("socket.words", float64(tt.words.Load()))
		}
		r.noteCoverage(tr, t0, wall)
		return nil
	})
	if err != nil {
		return err
	}

	if w.socket && firstHash != 0 {
		// Once per invocation and outside the timed loop: the socket
		// world must compute exactly the partition the in-process world
		// computes.
		err := protect(func() {
			out, err := job.run(r, mpi.NewProcWorld(ranks), nil, nil)
			if err != nil {
				panic(err)
			}
			if h := hashParts(out.parts); h != firstHash {
				panic(fmt.Sprintf("in-process partition hash %x, socket %x", h, firstHash))
			}
		})
		r.op("partition on proc", err)
	}
	return nil
}

// noteCoverage records how much of one operation's wall time rank 0's
// layer spans cover, and the unattributed remainder.
func (r *runner) noteCoverage(tr *tracer, t0 time.Time, wall time.Duration) {
	cov := tr.covered(0, t0, t0.Add(wall))
	r.noteDur("trace.unattributed_s", wall-cov)
	r.note("trace.coverage", cov.Seconds()/wall.Seconds())
}

// socketWorld is a two-rank Unix-socket world inside this process.
type socketWorld struct {
	ts  []mpi.Transport
	dir string // holds the socket files
}

// socketWorlds numbers the socket worlds of one process, so every world
// gets fresh socket paths.
var socketWorlds int

// newSocketWorld forms a socket world with its socket files under workdir.
func newSocketWorld(workdir string) (*socketWorld, error) {
	socketWorlds++
	dir := filepath.Join(workdir, fmt.Sprintf("sock-%d-%d", os.Getpid(), socketWorlds))
	if wd, err := os.Getwd(); err == nil {
		// Relative paths keep the addresses under the 108-byte limit
		// of Unix socket paths when the checkout sits deep.
		if rel, err := filepath.Rel(wd, dir); err == nil && len(rel) < len(dir) {
			dir = rel
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrs := make([]string, ranks)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
	}
	ts, err := mpi.NewSocketWorld("unix", addrs, 30*time.Second)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("socket world: %w", err)
	}
	return &socketWorld{ts: ts, dir: dir}, nil
}

// close tears the world down and removes its socket directory; a nil
// world is a no-op.
func (w *socketWorld) close() {
	if w == nil {
		return
	}
	for _, t := range w.ts {
		t.Close()
	}
	os.RemoveAll(w.dir)
}
