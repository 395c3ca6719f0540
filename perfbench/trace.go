package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// span is one interval recorded around a call into a layer of the
// program. parent indexes the enclosing span on the same track, or is -1.
type span struct {
	name       string
	start, end time.Time
	parent     int
}

// loopTrack is the trace track of the goroutine that runs the
// benchmark loop; tracks 0..ranks-1 belong to the ranks.
const loopTrack = ranks

// tracer keeps the spans of a traced run in memory until the run ends.
// Each track is written only by its own goroutine and read only after
// mpi.RunWorld has returned, which orders the writes. A nil *tracer
// records nothing, so untraced repetitions pass nil.
type tracer struct {
	origin time.Time
	tracks [ranks + 1][]span
	open   [ranks + 1][]int // per-track stack of open span indexes
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span named name on track tr.
func (t *tracer) begin(tr int, name string) {
	if t == nil {
		return
	}
	parent := -1
	if st := t.open[tr]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.tracks[tr] = append(t.tracks[tr], span{name: name, start: time.Now(), parent: parent})
	t.open[tr] = append(t.open[tr], len(t.tracks[tr])-1)
}

// end closes the innermost open span on track tr.
func (t *tracer) end(tr int) {
	if t == nil {
		return
	}
	st := t.open[tr]
	t.tracks[tr][st[len(st)-1]].end = time.Now()
	t.open[tr] = st[:len(st)-1]
}

// add records a finished span under the innermost open span of track tr.
func (t *tracer) add(tr int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if st := t.open[tr]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.tracks[tr] = append(t.tracks[tr], span{name: name, start: start, end: end, parent: parent})
}

// covered returns how much of [from, to] the root spans of track tr
// cover. A rank's root spans run one after another, so their clipped
// lengths add up to the covered time.
func (t *tracer) covered(tr int, from, to time.Time) time.Duration {
	var d time.Duration
	for _, s := range t.tracks[tr] {
		if s.parent != -1 {
			continue
		}
		lo, hi := s.start, s.end
		if lo.Before(from) {
			lo = from
		}
		if hi.After(to) {
			hi = to
		}
		if hi.After(lo) {
			d += hi.Sub(lo)
		}
	}
	return d
}

// total sums the durations of the spans on track tr named name that
// started at or after since.
func (t *tracer) total(tr int, name string, since time.Time) time.Duration {
	var d time.Duration
	for _, s := range t.tracks[tr] {
		if s.name == name && !s.start.Before(since) {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// iterRecorder turns core's per-iteration trace events, which rank 0
// delivers after each inner iteration, into timestamps. The hook only
// reads the event, so the partition is the one an untraced run computes.
type iterRecorder struct {
	stages []string
	at     []time.Time
	moved  int64 // vertices moved, summed over iterations
}

func (r *iterRecorder) hook(ev core.TraceEvent) {
	r.stages = append(r.stages, ev.Stage)
	r.at = append(r.at, time.Now())
	r.moved += ev.Moved
}

// emit records one span per iteration on track tr: iteration k runs
// from the previous event (or from the end of initialization) to event
// k. It returns the summed iteration time per stage.
func (r *iterRecorder) emit(t *tracer, tr int, initEnd time.Time) map[string]time.Duration {
	per := map[string]time.Duration{}
	prev := initEnd
	for k, st := range r.stages {
		t.add(tr, "core.iter."+st, prev, r.at[k])
		per[st] += r.at[k].Sub(prev)
		prev = r.at[k]
	}
	return per
}

// transportTimes accumulates the time each rank spends inside its socket
// transport, summed over ranks: Send64 is the sender's cost, Recv64 the
// receiver's wait, and collectives the time from entry to result.
type transportTimes struct {
	sendNs, recvNs, collNs atomic.Int64
	frames, words          atomic.Int64 // point-to-point data frames and their payload words
}

// timedTransport wraps one rank's socket transport. It adds only the
// methods of mpi.Transport, so Comm takes the same typed paths it takes
// on the bare socket transport. The in-process transport is never
// wrapped: Comm type-asserts its unexported extension, and a wrapped
// proc world would run a different program.
type timedTransport struct {
	mpi.Transport
	tt *transportTimes
}

func (w timedTransport) Send64(dst int, tag uint32, data []int64) {
	t0 := time.Now()
	w.Transport.Send64(dst, tag, data)
	w.tt.sendNs.Add(int64(time.Since(t0)))
	w.tt.frames.Add(1)
	w.tt.words.Add(int64(len(data)))
}

func (w timedTransport) Recv64(src int) ([]int64, uint32) {
	t0 := time.Now()
	p, tag := w.Transport.Recv64(src)
	w.tt.recvNs.Add(int64(time.Since(t0)))
	return p, tag
}

func (w timedTransport) coll(t0 time.Time) { w.tt.collNs.Add(int64(time.Since(t0))) }

func (w timedTransport) Barrier() {
	defer w.coll(time.Now())
	w.Transport.Barrier()
}

func (w timedTransport) AllreduceI64(vals []int64, op mpi.Op) []int64 {
	defer w.coll(time.Now())
	return w.Transport.AllreduceI64(vals, op)
}

func (w timedTransport) AllreduceF64(vals []float64, op mpi.Op) []float64 {
	defer w.coll(time.Now())
	return w.Transport.AllreduceF64(vals, op)
}

func (w timedTransport) BcastI64(root int, data []int64) []int64 {
	defer w.coll(time.Now())
	return w.Transport.BcastI64(root, data)
}

func (w timedTransport) AllgathervI64(data []int64) [][]int64 {
	defer w.coll(time.Now())
	return w.Transport.AllgathervI64(data)
}

func (w timedTransport) AlltoallvI64(send []int64, counts []int) ([]int64, []int) {
	defer w.coll(time.Now())
	return w.Transport.AlltoallvI64(send, counts)
}

func (w timedTransport) AlltoallvF64(send []float64, counts []int) ([]float64, []int) {
	defer w.coll(time.Now())
	return w.Transport.AlltoallvF64(send, counts)
}

// wrapTransports returns ts with every transport timed into tt.
func wrapTransports(ts []mpi.Transport, tt *transportTimes) []mpi.Transport {
	out := make([]mpi.Transport, len(ts))
	for i, t := range ts {
		out[i] = timedTransport{Transport: t, tt: tt}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (one thread
// per track), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for tr, spans := range t.tracks {
		for i, s := range spans {
			evs = append(evs, event{
				Name: s.name, Ph: "X", Pid: 0, Tid: tr,
				Ts:   float64(s.start.Sub(t.origin).Nanoseconds()) / 1e3,
				Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
				Args: map[string]any{"span": i, "parent": s.parent},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
