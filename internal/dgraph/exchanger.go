package dgraph

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// Exchanger is the boundary-exchange round interface every kernel
// drives: each iteration's boundary exchange and global reduction are
// one round, posted with a Begin* call and settled with the matching
// Flush*, which hands back the received pairs and the round's reduced
// tally (TallyRound). Two engines implement it:
//
//   - DeltaExchanger: packed per-neighbour point-to-point messages
//     drained on a background goroutine, pipelined to Depth rounds in
//     flight. On a complete rank neighbourhood tallies ride the
//     messages; on an incomplete one they are reduced by one exact
//     Allreduce at Flush.
//   - BulkExchanger: the paper's bulk-synchronous baseline. Begin
//     buffers, Flush ships the round as one Alltoallv of (gid,
//     payload) pairs and reduces the tally with at most one Allreduce.
//     Its depth is 1.
//
// Graph.Exchanger hands out the engine SetAsyncExchange selected.
// Results are identical on both engines; only the traffic counters and
// wall time tell them apart. Every rank must drive the same sequence
// of rounds, exactly as it must call the same collectives. Slices a
// Flush returns alias engine arenas and stay valid for Depth()-1
// subsequent rounds.
type Exchanger interface {
	// BeginTally posts an update round whose FlushTally will carry a
	// tally of tallyLen elements (0 for none).
	BeginTally(tallyLen int)
	// FlushTally ships the round's part-label updates owner → ghost
	// with this rank's tally, and returns the updates received for
	// this rank's ghosts and the round's global tally sums.
	FlushTally(q []Update, tally []int64) ([]Update, TallyRound)
	// BeginValues posts a value round: 64-bit payloads for owned
	// vertices, owner → ghost, with an optional tally (nil for none).
	// lids and payloads are consumed before it returns; tally.Vals
	// must stay untouched until the round's Flush returns.
	BeginValues(lids []int32, payloads []int64, tally *Tally)
	// FlushValues settles the oldest pending round, which must be an
	// uncounted BeginValues round, and returns the (ghost lid,
	// payload) pairs received plus the round's tally.
	FlushValues() ([]int32, []int64, TallyRound)
	// FlushCount settles a counted BeginValues round (Tally.Round > 0)
	// and hands over this rank's convergence counter for it; the
	// returned TallyRound's Count and Lag report the global counter.
	FlushCount(count int64) ([]int32, []int64, TallyRound)
	// BeginPush posts a push round: 64-bit payloads for ghost
	// vertices, ghost → owner, with an optional tally.
	BeginPush(lids []int32, payloads []int64, tally *Tally)
	// FlushPush settles the oldest pending round, which must be a
	// BeginPush round, and returns the (owned lid, payload) pairs
	// received plus the round's tally.
	FlushPush() ([]int32, []int64, TallyRound)
	// Depth is how many rounds may be in flight at once.
	Depth() int
	// InFlight is the number of posted-but-unflushed rounds.
	InFlight() int
	// SetRoundWave selects the wave id of subsequently posted rounds
	// (multi-wave schedules; see DeltaExchanger.SetRoundWave).
	SetRoundWave(w int)
}

// Tally is the reduction a value or push round carries. Every engine
// settles it exactly by the round's Flush: piggybacked on the messages
// when they reach every rank, by one Allreduce otherwise. Its element
// kind must be declared, because an Allreduce of float64 partial sums
// is not an Allreduce of their bit patterns.
type Tally struct {
	// Vals is this rank's contribution; every rank passes the same
	// length. A counted round carries no Vals.
	Vals []int64
	// Float declares Vals as float64 bit patterns, summed in ascending
	// rank order (read with TallyRound.FoldFloat); otherwise they are
	// int64 counters (TallyRound.Sum).
	Float bool
	// Round, when positive, marks a counted round and numbers it
	// within its loop from 1. A counted round settles with FlushCount.
	// The delta engine on a complete neighbourhood carries each round's
	// counter on the next counted round's messages; round 1 carries
	// "not converged" instead.
	Round int
	// Max, on a counted round, is evaluated at Begin by an engine that
	// carries the counter on messages, and its global maximum comes
	// back with the counter (TallyRound.CountMax). Its values must be
	// non-negative.
	Max func() int64
}

// TallyRound is the reduced tally of one settled round. Piggybacked
// rounds keep this rank's contribution and one frame per source, so
// the caller controls the fold order; reduced rounds hold the
// Allreduce result.
type TallyRound struct {
	own  []int64
	srcs []int32
	flat []int64
	n    int
	rank int32

	// global or globalF is the round's tally as reduced by Allreduce,
	// by its element kind (both nil when the tally rode the messages).
	global  []int64
	globalF []float64

	// Counted rounds: the global counter, how many rounds it lags the
	// round just settled, and the carried maximum (maxOK when present).
	count int64
	lag   int
	max   int64
	maxOK bool
}

// Sum returns the global sum of entry i — for order-insensitive
// integer counters.
func (t TallyRound) Sum(i int) int64 {
	if t.globalF != nil {
		panic("dgraph: TallyRound.Sum on a float tally (use FoldFloat)")
	}
	if t.global != nil {
		return t.global[i]
	}
	s := t.own[i]
	for j := i; j < len(t.flat); j += t.n {
		s += t.flat[j]
	}
	return s
}

// Max returns the maximum of own[i] and entry i of every received
// frame — the global max for order-insensitive integer extrema. Entries
// absent from a frame fold as that source's contribution of 0, so Max
// is meaningful only for non-negative counters. Piggybacked rounds
// only: a reduced round holds sums.
func (t TallyRound) Max(i int) int64 {
	m := t.own[i]
	for j := i; j < len(t.flat); j += t.n {
		if v := t.flat[j]; v > m {
			m = v
		}
	}
	return m
}

// FoldFloatMax folds entry i as float64 bit patterns under max — the
// max-combining counterpart of FoldFloat. Max over floats is exact in
// any order, so the result is bit-identical to the Allreduce(Max) it
// replaces. Piggybacked rounds only.
func (t TallyRound) FoldFloatMax(i int) float64 {
	m := math.Float64frombits(uint64(t.own[i]))
	for j := i; j < len(t.flat); j += t.n {
		if v := math.Float64frombits(uint64(t.flat[j])); v > m {
			m = v
		}
	}
	return m
}

// FoldFloat folds entry i as float64 bit patterns in ascending global
// rank order, with this rank's own contribution at its rank position —
// the exact accumulation order of mpi.Allreduce(Sum), so a piggybacked
// fold is bit-identical to the Allreduce a reduced round performed.
func (t TallyRound) FoldFloat(i int) float64 {
	if t.global != nil {
		panic("dgraph: TallyRound.FoldFloat on an int64 tally (use Sum)")
	}
	if t.globalF != nil {
		return t.globalF[i]
	}
	var sum float64
	first := true
	add := func(bits int64) {
		v := math.Float64frombits(uint64(bits))
		if first {
			sum, first = v, false
			return
		}
		sum += v
	}
	ownDone := false
	for f, src := range t.srcs {
		if !ownDone && t.rank < src {
			add(t.own[i])
			ownDone = true
		}
		add(t.flat[f*t.n+i])
	}
	if !ownDone {
		add(t.own[i])
	}
	return sum
}

// Count returns a counted round's global convergence counter: the sum
// of the counters every rank handed to FlushCount Lag() rounds ago.
func (t TallyRound) Count() int64 { return t.count }

// Lag reports how many rounds the counter trails the round just
// settled: 0 when the engine reduced it in the same round, 1 when it
// rode the next round's messages. A loop that stops on Count() == 0
// has run Lag() more rounds than it would on an engine reducing the
// counter in the same round.
func (t TallyRound) Lag() int { return t.lag }

// CountMax returns the global maximum of Tally.Max carried with the
// counter, and whether the engine carried one.
func (t TallyRound) CountMax() (int64, bool) { return t.max, t.maxOK }

// reduceTally settles a tally by one exact Allreduce — the bulk
// engine's reduction, and the delta engine's on incomplete
// neighbourhoods. Float tallies are reduced as float64 sums folded in
// ascending rank order, the order TallyRound.FoldFloat uses; scratch
// holds their decoded values between rounds.
func reduceTally(c *mpi.Comm, vals []int64, float bool, scratch *[]float64) TallyRound {
	if !float {
		return TallyRound{global: mpi.Allreduce(c, vals, mpi.Sum), n: len(vals)}
	}
	f := *scratch
	if cap(f) < len(vals) {
		f = make([]float64, len(vals))
	}
	f = f[:len(vals)]
	for i, v := range vals {
		f[i] = math.Float64frombits(uint64(v))
	}
	*scratch = f
	return TallyRound{globalF: mpi.Allreduce(c, f, mpi.Sum), n: len(vals)}
}

// reduceCount settles a counted round's counter by Allreduce, in the
// round it belongs to.
func reduceCount(c *mpi.Comm, count int64) TallyRound {
	return TallyRound{count: mpi.AllreduceScalar(c, count, mpi.Sum)}
}

// tallyOf copies a round's declared tally (the zero Tally for nil), so
// a caller may reuse its Tally value once Begin returns.
func tallyOf(t *Tally) Tally {
	if t == nil {
		return Tally{}
	}
	return *t
}

// checkTally validates a round's declared tally against the flush that
// settles it.
func checkTally(t Tally, counted bool) {
	switch {
	case t.Round > 0 && len(t.Vals) > 0:
		panic("dgraph: a counted round carries no tally Vals")
	case counted && t.Round <= 0:
		panic("dgraph: FlushCount settles an uncounted round")
	case !counted && t.Round > 0:
		panic("dgraph: a counted round must settle with FlushCount")
	}
}

// checkWave rejects a wave id that does not fit a round tag.
func checkWave(w int) {
	if w < 0 || w > mpi.MaxTagWave {
		panic(fmt.Sprintf("dgraph: SetRoundWave(%d) outside [0,%d]", w, mpi.MaxTagWave))
	}
}

// Both engines implement the round interface.
var (
	_ Exchanger = (*DeltaExchanger)(nil)
	_ Exchanger = (*BulkExchanger)(nil)
)
