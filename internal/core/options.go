package core

import (
	"fmt"
	"time"

	"repro/internal/partition"
)

// InitStrategy selects how initial part assignments are produced.
type InitStrategy int

// Initialization strategies (§III.B and §V.E).
const (
	// InitBFS is the paper's hybrid initialization (Algorithm 2):
	// random roots grown with randomized label propagation.
	InitBFS InitStrategy = iota
	// InitRandom assigns uniformly random parts.
	InitRandom
	// InitBlock assigns contiguous gid ranges to parts (vertex block),
	// the variant used for the Fig. 8 analytics runs.
	InitBlock
)

// String names the strategy for reports.
func (s InitStrategy) String() string {
	switch s {
	case InitBFS:
		return "bfs"
	case InitRandom:
		return "random"
	case InitBlock:
		return "block"
	default:
		return fmt.Sprintf("InitStrategy(%d)", int(s))
	}
}

// ExchangeMode selects how boundary part-assignment updates travel
// between ranks each iteration.
type ExchangeMode int

// Exchange modes.
const (
	// ExchangeSync is the bulk-synchronous path: a world-wide Alltoallv
	// shipping (gid, value) pairs, destinations re-derived from the
	// adjacency every iteration.
	ExchangeSync ExchangeMode = iota
	// ExchangeAsyncDelta ships only the vertices whose labels moved
	// this iteration as packed single-element updates over nonblocking
	// point-to-point messages, with the receive side drained on a
	// background goroutine while local propagation is still running.
	// When the rank neighborhood graph is complete (detected at
	// startup) part-size delta tallies piggyback on the same messages,
	// retiring the per-iteration Allreduce the synchronous path pays.
	// For fixed seeds it produces exactly the partition the synchronous
	// path produces, at roughly half the exchanged-element volume.
	ExchangeAsyncDelta
)

// String names the mode for reports.
func (m ExchangeMode) String() string {
	switch m {
	case ExchangeSync:
		return "sync"
	case ExchangeAsyncDelta:
		return "async-delta"
	default:
		return fmt.Sprintf("ExchangeMode(%d)", int(m))
	}
}

// Options configures a partitioning run. The zero value is not valid;
// use DefaultOptions.
type Options struct {
	// NumParts is p, the number of parts to compute.
	NumParts int
	// Iouter, Ibal, Iref are the stage iteration counts; the paper's
	// defaults (used in all its experiments) are 3, 5, 10.
	Iouter, Ibal, Iref int
	// X and Y parameterize the dynamic multiplier schedule. The paper
	// selects X=1.0, Y=0.25 empirically (§V.D).
	X, Y float64
	// VertImbalance and EdgeImbalance are the constraint ratios Ratv
	// and Rate; target part sizes are (1+ratio)·ideal. Default 0.10.
	VertImbalance float64
	EdgeImbalance float64
	// Init selects the initialization strategy.
	Init InitStrategy
	// SingleConstraint, when true, runs only the vertex balance and
	// refinement stages, solving the single-constraint single-objective
	// problem used for the KaHIP comparison (§V.C).
	SingleConstraint bool
	// Exchange selects the boundary-exchange implementation. All ranks
	// must pass the same mode.
	Exchange ExchangeMode
	// Seed drives root selection and random assignments.
	Seed uint64
	// Trace, when non-nil, receives a TraceEvent on rank 0 after every
	// inner iteration. All ranks must pass the same (possibly nil)
	// setting; the callback must not invoke collectives.
	Trace func(TraceEvent)
}

// DefaultOptions returns the paper's default configuration for p parts.
func DefaultOptions(p int) Options {
	return Options{
		NumParts:      p,
		Iouter:        3,
		Ibal:          5,
		Iref:          10,
		X:             1.0,
		Y:             0.25,
		VertImbalance: 0.10,
		EdgeImbalance: 0.10,
		Init:          InitBFS,
		Seed:          1,
	}
}

// validate reports configuration errors.
func (o *Options) validate() error {
	if o.NumParts < 1 {
		return fmt.Errorf("core: NumParts = %d, need >= 1", o.NumParts)
	}
	if o.Iouter < 1 || o.Ibal < 0 || o.Iref < 0 {
		return fmt.Errorf("core: bad iteration counts Iouter=%d Ibal=%d Iref=%d", o.Iouter, o.Ibal, o.Iref)
	}
	if o.VertImbalance < 0 || o.EdgeImbalance < 0 {
		return fmt.Errorf("core: negative imbalance ratio")
	}
	if o.X < 0 || o.Y < 0 {
		return fmt.Errorf("core: negative multiplier parameter X=%v Y=%v", o.X, o.Y)
	}
	if o.Exchange != ExchangeSync && o.Exchange != ExchangeAsyncDelta {
		return fmt.Errorf("core: unknown exchange mode %d", int(o.Exchange))
	}
	return nil
}

// Report carries per-stage instrumentation from one partitioning run.
// All ranks return identical reports.
type Report struct {
	// Times per stage (wall clock on this rank).
	InitTime  time.Duration
	VertTime  time.Duration
	EdgeTime  time.Duration
	TotalTime time.Duration
	// InitIters is the number of BFS-propagation rounds used by
	// initialization.
	InitIters int
	// ExchangeVolume is the total element volume all ranks sent during
	// the partitioning stages (initialization through refinement,
	// excluding graph construction and quality evaluation). Whenever
	// rank boundaries exist (more than one rank and a connected cut),
	// the async delta mode reports strictly less than the synchronous
	// mode for the same run; a single-rank async run still reports less
	// because the piggybacked tallies retire the per-iteration
	// reductions the synchronous mode sends.
	ExchangeVolume int64
	// ReductionOps is the number of Allreduce operations the stages
	// performed (identical on every rank). Synchronous runs pay one per
	// inner iteration to settle part-size deltas; async-delta runs
	// on a complete rank neighborhood piggyback the tallies on the
	// update messages and need none between stage recounts.
	ReductionOps int64
	// Quality holds the final partition metrics.
	Quality partition.Quality
}

// TraceEvent is a per-iteration snapshot of the partitioner's global
// state, delivered to Options.Trace on rank 0 after each inner
// iteration's deltas settle. It exposes the quantities the paper's
// §III.C reasons about: how far the largest part sits above its target
// and how much assignment churn the multiplier admitted.
type TraceEvent struct {
	// Stage is "init", "vbal", "vref", "ebal", or "eref".
	Stage string
	// Iter is the global inner-iteration counter within the run.
	Iter int
	// Mult is the damping multiplier used this iteration (0 for init).
	Mult float64
	// MaxVerts and MaxEdges are the largest per-part vertex count and
	// degree sum; MaxCut is the largest per-part incident cut (only
	// tracked during edge stages, else 0).
	MaxVerts, MaxEdges, MaxCut int64
	// Moved is the number of vertices that changed parts globally.
	Moved int64
}
