package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/mpi"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tiny     bool   // test-sized inputs
	workdir  string // where socket files and traces go
}

// runner collects what one invocation measures. Timings are kept apart
// by whether their repetition was traced: end-to-end figures come from
// untraced repetitions, per-layer figures from traced ones, and the
// difference between the two is the tracing overhead.
type runner struct {
	cfg  config
	tr   *tracer // nil unless cfg.traced
	log  io.Writer
	errs int // failures already logged

	attempted, failed int

	plain, traced map[string][]float64 // timing samples in seconds
	exact         map[string]float64   // values that are exact at a seed: quality and balance
	layer         map[string][]float64 // per-layer samples from traced repetitions

	// opHeap is the largest live heap read at the layer boundaries of
	// the current timed operation; heapMB holds one such peak per
	// successful operation.
	opHeap uint64
	heapMB []float64
	live   []metrics.Sample
}

func newRunner(cfg config, log io.Writer) *runner {
	return &runner{
		cfg: cfg, log: log,
		plain:  map[string][]float64{},
		traced: map[string][]float64{},
		exact:  map[string]float64{},
		layer:  map[string][]float64{},
		live:   []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
}

// loop runs step in a closed loop until cfg.seconds have passed, and at
// least twice so a traced invocation has both kinds of repetition. Each
// step is one set-up followed by one timed operation, so set-up samples
// spread over the run like the operation samples do. In a traced
// invocation every other step is traced, starting with the first. An
// error from step (a failed set-up) ends the loop.
func (r *runner) loop(step func(traced bool) error) error {
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < r.cfg.seconds; i++ {
		if err := step(r.cfg.traced && i%2 == 0); err != nil {
			return err
		}
	}
	return nil
}

// tracerFor returns the tracer for a repetition, nil when untraced.
func (r *runner) tracerFor(traced bool) *tracer {
	if traced {
		return r.tr
	}
	return nil
}

// time records one sample of an end-to-end timing.
func (r *runner) time(name string, traced bool, d time.Duration) {
	if traced {
		r.traced[name] = append(r.traced[name], d.Seconds())
	} else {
		r.plain[name] = append(r.plain[name], d.Seconds())
	}
}

// note records one per-layer sample; durations are stored in seconds.
func (r *runner) note(name string, v float64) { r.layer[name] = append(r.layer[name], v) }

func (r *runner) noteDur(name string, d time.Duration) { r.note(name, d.Seconds()) }

// noteStats records the per-layer communication counters of one call.
func (r *runner) noteStats(s mpi.Stats) {
	r.note("mpi.collectives", float64(s.Collectives))
	r.note("mpi.elems_sent", float64(s.ElemsSent))
	r.note("mpi.exchange_ops", float64(s.ExchangeOps))
	r.note("mpi.reduction_ops", float64(s.ReductionOps))
	r.note("mpi.send_ops", float64(s.SendOps))
	r.note("mpi.recv_ops", float64(s.RecvOps))
	r.note("mpi.tally_elems", float64(s.TallyElems))
}

// heap reads the live heap at a layer boundary and keeps the
// operation's largest value. The live heap is what the last garbage
// collection found reachable; unlike HeapInuse it does not swing with
// how much garbage has piled up since, so it repeats from run to run.
func (r *runner) heap() {
	metrics.Read(r.live)
	r.opHeap = max(r.opHeap, r.live[0].Value.Uint64())
}

// heapReset starts a timed operation's heap peak; heapSample records it.
func (r *runner) heapReset() { r.opHeap = 0 }

func (r *runner) heapSample() { r.heapMB = append(r.heapMB, float64(r.opHeap)/(1<<20)) }

// op counts one operation (a partition, an analytic or an SpMV run) and
// whether it failed.
func (r *runner) op(name string, err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if r.errs < 20 {
		fmt.Fprintf(r.log, "perfbench: %s failed: %v\n", name, err)
		r.errs++
	}
}

// protect runs fn and turns a panic into an error, so a crashing
// operation counts as a failure instead of ending the run.
func protect(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	fn()
	return nil
}

// statsSum adds the counters of every rank; statsSub subtracts b from a.
func statsSum(all []mpi.Stats) mpi.Stats {
	var s mpi.Stats
	for _, x := range all {
		s.Collectives += x.Collectives
		s.ElemsSent += x.ElemsSent
		s.ElemsRecv += x.ElemsRecv
		s.ExchangeOps += x.ExchangeOps
		s.ReductionOps += x.ReductionOps
		s.SendOps += x.SendOps
		s.RecvOps += x.RecvOps
		s.TallyElems += x.TallyElems
	}
	return s
}

func statsSub(a, b mpi.Stats) mpi.Stats {
	return mpi.Stats{
		Collectives: a.Collectives - b.Collectives, ElemsSent: a.ElemsSent - b.ElemsSent,
		ElemsRecv: a.ElemsRecv - b.ElemsRecv, ExchangeOps: a.ExchangeOps - b.ExchangeOps,
		ReductionOps: a.ReductionOps - b.ReductionOps, SendOps: a.SendOps - b.SendOps,
		RecvOps: a.RecvOps - b.RecvOps, TallyElems: a.TallyElems - b.TallyElems,
	}
}

// hashParts fingerprints a partition.
func hashParts(parts []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range parts {
		b[0], b[1], b[2], b[3] = byte(p), byte(p>>8), byte(p>>16), byte(p>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest percentile of xs with at least ten samples
// above it, and its value; ok is false below eleven samples.
func tail(xs []float64) (pct, v float64, ok bool) {
	if len(xs) < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 11
	return 100 * float64(k) / float64(len(s)-1), s[k], true
}
