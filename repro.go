// Package repro is a from-scratch Go reproduction of "Partitioning
// Trillion-edge Graphs in Minutes" (Slota, Rajamanickam, Devine,
// Madduri; IPDPS 2017): the XtraPuLP distributed-memory label
// propagation partitioner, every baseline it is evaluated against
// (PuLP, a METIS-like and a KaHIP-like multilevel partitioner, and the
// block/random strategies), the distributed substrate it runs on (a
// simulated MPI communicator with goroutine ranks, a 1D distributed
// CSR with ghost vertices), and the paper's downstream applications
// (six distributed graph analytics and 1D/2D SpMV).
//
// This file is the public facade: graph generation, one-call
// partitioning with any of the paper's methods, quality evaluation,
// and distributed runs. Each distributed workload has one entry point
// (XtraPuLP, RunAnalytics, RunSpMV) over a World: Local for in-process
// goroutine ranks, Joined for one rank of an externally formed world.
// The building blocks live under internal/.
//
//	g := repro.RMAT(16, 16, 1).MustBuild()
//	parts, rep, err := repro.XtraPuLP(repro.Local(4, 1), repro.FromGraph(g), repro.Config{Parts: 16})
//	q := repro.Evaluate(g, parts, 16)
package repro

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/multilevel"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/pulp"
)

// Graph is the shared-memory CSR graph type.
type Graph = graph.Graph

// Generator lazily produces a seeded synthetic graph; see the gen
// package for the available families.
type Generator = gen.Generator

// Quality bundles the paper's partition quality metrics.
type Quality = partition.Quality

// Graph generators for every class in the paper's Table I.
var (
	// RMAT builds Graph500 R-MAT graphs (skewed, small-world).
	RMAT = gen.RMAT
	// RandER builds Erdős–Rényi G(n, m) graphs.
	RandER = gen.ER
	// RandHD builds the paper's high-diameter random graphs.
	RandHD = gen.RandHD
	// Mesh3D builds regular 3D grid meshes (InternalMesh stand-ins).
	Mesh3D = gen.Grid3D
	// SmallWorld builds Watts–Strogatz rings.
	SmallWorld = gen.WattsStrogatz
	// PowerLaw builds Chung–Lu power-law graphs (social/web proxies).
	PowerLaw = gen.ChungLu
)

// LoadGraph reads an edge-list file (.bin binary or text).
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes an edge-list file (.bin binary or text).
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// Evaluate computes the paper's quality metrics for a partition.
func Evaluate(g *Graph, parts []int32, p int) Quality {
	return partition.Evaluate(g, parts, p)
}

// World is the set of ranks a distributed run executes on. Build one
// with Local (in-process goroutine ranks) or Joined (one rank of a
// world formed outside the call). The zero World is Local(1, 0).
type World struct {
	ranks, threads int
	comm           *mpi.Comm // non-nil for Joined
}

// Local is an in-process world of ranks goroutine ranks (fewer than
// one means one) with threads workers each. The repo-wide thread rule:
// 0 (or negative) selects one worker per core (par.DefaultThreads), an
// explicit 1 runs serial. The partitioner's propagation RNG streams
// are keyed by thread id, so its partition depends on the thread count
// — deterministic for a fixed count, different across counts. Pin an
// explicit value when partitions must reproduce across machines;
// analytics values and SpMV checksums are bit-identical at every
// thread count.
func Local(ranks, threads int) World { return World{ranks: ranks, threads: threads} }

// Joined is the calling rank of a world formed outside the call: each
// OS process of a socket world (SocketComm) or each rank body of an
// mpi.RunWorld. Every rank of the world must make the same facade
// calls, as with any collective. The communicator defines the world
// size and the thread budget.
func Joined(c *mpi.Comm) World { return World{comm: c} }

// Size is the number of ranks in the world.
func (w World) Size() int {
	if w.comm != nil {
		return w.comm.Size()
	}
	return max(w.ranks, 1)
}

// Rank is the calling rank: the communicator's on a Joined world, 0 on
// a Local world (whose entry points return rank 0's results).
func (w World) Rank() int {
	if w.comm != nil {
		return w.comm.Rank()
	}
	return 0
}

// Threads is the intra-rank thread budget, resolved (at least 1).
func (w World) Threads() int {
	if w.comm != nil {
		return w.comm.Threads()
	}
	return par.ResolveThreads(w.threads)
}

// runOn runs body on every rank of w and returns the calling rank's
// result: rank 0's on a Local world.
func runOn[T any](w World, body func(c *mpi.Comm) (T, error)) (T, error) {
	if w.comm != nil {
		return body(w.comm)
	}
	var out T
	var runErr error
	mpi.RunThreads(w.Size(), w.Threads(), func(c *mpi.Comm) {
		r, err := body(c)
		if c.Rank() == 0 {
			out, runErr = r, err
		}
	})
	return out, runErr
}

// Config drives a distributed XtraPuLP run.
type Config struct {
	// Parts is the number of parts to compute (required).
	Parts int
	// RandomDist selects the hashed (random) vertex distribution
	// instead of block; the paper observes random scales better for
	// irregular graphs.
	RandomDist bool
	// SingleConstraint solves the single-constraint single-objective
	// problem (§V.C comparison mode).
	SingleConstraint bool
	// AsyncExchange switches the boundary exchange from the bulk-
	// synchronous Alltoallv to the asynchronous delta-only path:
	// changed labels travel as packed single-element updates over
	// nonblocking point-to-point messages, drained concurrently with
	// local propagation, and — when every rank neighbors every other —
	// per-part size tallies piggyback on the same messages so
	// iterations need no global Allreduce barrier. The final partition
	// is identical for fixed seeds, and the exchanged-element volume is
	// strictly lower. The analytics and SpMV paths select the same
	// engine through AnalyticsConfig.AsyncExchange and
	// SpMVConfig.AsyncExchange.
	AsyncExchange bool
	// Init selects the initialization strategy; zero value is the
	// paper's BFS hybrid.
	Init core.InitStrategy
	// OverrideXY, when true, replaces the multiplier schedule's X and
	// Y parameters with the Config values (needed to sweep X=Y=0).
	OverrideXY bool
	// X, Y override the multiplier schedule when OverrideXY is set or
	// either value is nonzero.
	X, Y float64
	// Seed fixes all randomness (default 1).
	Seed uint64
}

// Report describes one distributed partitioning run.
type Report struct {
	// Stage times from the reporting rank.
	InitTime, VertTime, EdgeTime, TotalTime time.Duration
	// InitIters is the number of initialization propagation rounds.
	InitIters int
	// Quality holds the collectively computed final metrics.
	Quality Quality
	// CommVolume is the total element volume all ranks exchanged,
	// including distributed graph construction.
	CommVolume int64
	// ExchangeVolume is the element volume sent during the
	// partitioning stages only — the number the sync-vs-async
	// exchange comparison is about.
	ExchangeVolume int64
	// ReductionOps is the number of Allreduce operations the
	// partitioning stages performed. Synchronous runs pay one per inner
	// iteration; async runs on complete rank neighborhoods piggyback
	// the tallies on the boundary messages and need none between stage
	// recounts.
	ReductionOps int64
}

// XtraPuLP partitions the generator's graph with the paper's
// distributed partitioner on w. Each rank generates only its chunk of
// the edge list, so no rank ever materializes the whole graph — the
// paper's actual usage mode at scale; FromGraph adapts an in-memory
// graph. It returns the full part assignment indexed by vertex id and
// the calling rank's Report (rank 0's on a Local world): timings are
// that rank's, quality and volumes are collective and identical
// everywhere.
func XtraPuLP(w World, g *Generator, cfg Config) ([]int32, Report, error) {
	if cfg.Parts < 1 {
		return nil, Report{}, fmt.Errorf("repro: Config.Parts = %d", cfg.Parts)
	}
	type result struct {
		parts []int32
		rep   Report
	}
	r, err := runOn(w, func(c *mpi.Comm) (result, error) {
		parts, rep, err := xtrapulpRank(c, g, cfg)
		return result{parts, rep}, err
	})
	return r.parts, r.rep, err
}

// xtrapulpRank is one rank's share of XtraPuLP.
func xtrapulpRank(c *mpi.Comm, g *Generator, cfg Config) ([]int32, Report, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	opt := core.DefaultOptions(cfg.Parts)
	opt.SingleConstraint = cfg.SingleConstraint
	opt.Init = cfg.Init
	opt.Seed = seed
	if cfg.AsyncExchange {
		opt.Exchange = core.ExchangeAsyncDelta
	}
	if cfg.OverrideXY || cfg.X != 0 || cfg.Y != 0 {
		opt.X, opt.Y = cfg.X, cfg.Y
	}

	var dist dgraph.Distribution = dgraph.BlockDist{N: g.N, P: c.Size()}
	if cfg.RandomDist {
		dist = dgraph.HashDist{P: c.Size(), Seed: seed}
	}
	dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), dist)
	if err != nil {
		// Construction errors are deterministic and local-input
		// driven: every rank fails identically, so no collective is
		// left half-entered.
		return nil, Report{}, err
	}
	local, r, err := core.Partition(dg, opt)
	if err != nil {
		// Partition errors are symmetric across ranks and happen
		// between rounds, so the drainer teardown is safe here.
		dg.Close()
		return nil, Report{}, err
	}
	full := dg.GatherGlobal(local[:dg.NLocal])
	vol := mpi.AllreduceScalar(c, c.Stats().ElemsSent, mpi.Sum)
	// Normal-path teardown of the async exchanger's drainer (not
	// deferred: after a panic the poison + finalizer backstop
	// handle it — see Graph.Close).
	dg.Close()
	rep := Report{
		InitTime: r.InitTime, VertTime: r.VertTime,
		EdgeTime: r.EdgeTime, TotalTime: r.TotalTime,
		InitIters: r.InitIters, Quality: r.Quality,
		CommVolume: vol, ExchangeVolume: r.ExchangeVolume,
		ReductionOps: r.ReductionOps,
	}
	return full, rep, nil
}

// SocketComm joins this process to an externally launched socket
// world: it reads the REPRO_* rendezvous environment (set by
// cmd/reprorun or any MPI-style launcher; see mpi.SocketConfigFromEnv
// for the variables and their defaults), dials every peer with the
// retrying rendezvous, and returns this rank's communicator plus a
// closer that tears the transport down. threads is the intra-rank
// thread budget; 0 (or negative) defers to the REPRO_THREADS
// environment variable when it holds a positive integer (so a launcher
// can set the budget for every worker it spawns), and otherwise to one
// worker per core (par.DefaultThreads). Pass the communicator to the
// run entry points as Joined(c); callers that print or write output
// should do so from rank 0 only (Comm.Rank() == 0).
func SocketComm(threads int) (*mpi.Comm, func() error, error) {
	cfg, err := mpi.SocketConfigFromEnv()
	if err != nil {
		return nil, nil, err
	}
	tr, err := mpi.DialSocket(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: rendezvous: %w", err)
	}
	if threads < 1 {
		if env, err := strconv.Atoi(os.Getenv("REPRO_THREADS")); err == nil && env > 0 {
			threads = env
		} else {
			threads = par.DefaultThreads()
		}
	}
	return mpi.NewComm(tr, threads), tr.Close, nil
}

// FromGraph wraps an in-memory graph as a Generator so the distributed
// entry points can chunk it.
func FromGraph(g *Graph) *Generator {
	return gen.FromEdgeList("static", g.N, g.Edges())
}

// Method names accepted by Partition.
const (
	MethodXtraPuLP    = "xtrapulp"
	MethodPuLP        = "pulp"
	MethodMetisLike   = "metis"
	MethodKahipLike   = "kahip"
	MethodRandom      = "random"
	MethodVertexBlock = "vertexblock"
	MethodEdgeBlock   = "edgeblock"
)

// Methods lists every partitioning method name accepted by Partition,
// in the order the paper introduces them.
func Methods() []string {
	return []string{
		MethodXtraPuLP, MethodPuLP, MethodMetisLike, MethodKahipLike,
		MethodRandom, MethodVertexBlock, MethodEdgeBlock,
	}
}

// Partition computes a p-way partition of g with the named method
// using that method's defaults (XtraPuLP runs on 4 simulated ranks).
func Partition(method string, g *Graph, p int, seed uint64) ([]int32, error) {
	switch method {
	case MethodXtraPuLP:
		// One thread per rank: the method defaults promise the same
		// partition for the same seed on every machine, and the
		// propagation RNG streams are thread-id keyed.
		parts, _, err := XtraPuLP(Local(4, 1), FromGraph(g), Config{Parts: p, RandomDist: true, Seed: seed})
		return parts, err
	case MethodPuLP:
		opt := pulp.DefaultOptions(p)
		opt.Threads = 1 // method defaults promise machine-independent partitions
		opt.Seed = seed
		parts, _, err := pulp.Partition(g, opt)
		return parts, err
	case MethodMetisLike:
		opt := multilevel.MetisLike(p)
		opt.Seed = seed
		parts, _, err := multilevel.Partition(g, opt)
		return parts, err
	case MethodKahipLike:
		opt := multilevel.KahipLike(p)
		opt.Seed = seed
		parts, _, err := multilevel.Partition(g, opt)
		return parts, err
	case MethodRandom:
		return partition.Random(g, p, seed), nil
	case MethodVertexBlock:
		return partition.VertexBlock(g, p), nil
	case MethodEdgeBlock:
		return partition.EdgeBlock(g, p), nil
	default:
		return nil, fmt.Errorf("repro: unknown method %q (have %v)", method, Methods())
	}
}
