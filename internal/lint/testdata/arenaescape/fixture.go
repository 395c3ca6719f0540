// Package fixture reproduces the arena-aliasing escape shapes (the
// PR 5 bug) for the arenaescape analyzer. It is type-checked by the
// analyzer tests, never run.
package fixture

import (
	"repro/internal/dgraph"
	"repro/internal/mpi"
)

type sink struct {
	kept []int64
	lids []int32
}

// storeField retains a pooled receive buffer past the round that
// recycles it.
func storeField(c *mpi.Comm, s *sink) {
	msg := mpi.Recv64(c, 1)
	s.kept = msg // want "stored into field"
}

// returned leaks the pooled buffer to an unsuspecting caller.
func returned(c *mpi.Comm) []int64 {
	msg := mpi.Recv64Tag(c, 1, 0)
	return msg // want "returned to caller"
}

// capture hands the buffer to a goroutine that may run after the
// round window closes.
func capture(c *mpi.Comm, done chan struct{}) {
	msg := mpi.Recv64(c, 1)
	go func() { // want "goroutine captures"
		_ = msg[0]
		close(done)
	}()
}

// appendRef stores the slice header, not the contents.
func appendRef(c *mpi.Comm, keep [][]int64) [][]int64 {
	msg := mpi.Recv64(c, 1)
	keep = append(keep, msg) // want "appended by reference"
	return keep
}

// flushEscape is the exchange-engine variant: FlushValues results
// alias decode arenas valid for depth-1 subsequent rounds only.
func flushEscape(ex *dgraph.DeltaExchanger, s *sink) {
	ex.BeginValues(nil, nil, nil)
	lids, payloads, _ := ex.FlushValues()
	s.lids = lids // want "stored into field"
	_ = payloads
}

// bulkFlushEscape parks a bulk engine's decode view in a field: the
// engine reuses its arenas on the next round just like the delta
// engine.
func bulkFlushEscape(ex *dgraph.BulkExchanger, s *sink) {
	ex.BeginPush(nil, nil, nil)
	lids, payloads, _ := ex.FlushPush()
	s.lids = lids // want "stored into field"
	_ = payloads
}

// useAfterRecycle reads a buffer Recycle64 already returned to the
// pool.
func useAfterRecycle(c *mpi.Comm) int64 {
	msg := mpi.Recv64(c, 1)
	v := msg[0]
	c.Recycle64(msg)
	return v + msg[1] // want "used after Recycle64"
}

// splitAlias: SplitTally views alias the message they split.
func splitAlias(c *mpi.Comm, s *sink) {
	msg := mpi.Recv64Tag(c, 1, 0)
	body := mpi.SplitTally(msg, nil)
	s.kept = body // want "stored into field"
	c.Recycle64(msg)
}

// transportRecv: Recv64 through the Transport interface hands out the
// same pooled buffer as the Comm-level helpers.
func transportRecv(tr mpi.Transport, s *sink) {
	msg, _ := tr.Recv64(1)
	s.kept = msg // want "stored into field"
	tr.Recycle64(msg)
}

// transportUseAfterRecycle: the interface's Recycle64 closes the
// aliasing window just like Comm's.
func transportUseAfterRecycle(tr mpi.Transport) int64 {
	msg, _ := tr.Recv64(1)
	v := msg[0]
	tr.Recycle64(msg)
	return v + msg[1] // want "used after Recycle64"
}

// watchdogCapture: a liveness-monitor-style helper goroutine holding a
// pooled socket receive buffer past its round window. The transport's
// own heartbeat loop recycles ping payloads inline for exactly this
// reason; user-level watchdogs must copy what they keep.
func watchdogCapture(st *mpi.SocketTransport, alarm chan []int64) {
	msg, _ := st.Recv64(1)
	go func() { // want "goroutine captures"
		alarm <- msg // want "sent on a channel"
	}()
}

// the shapes below copy before retaining and must produce no findings.

func copied(c *mpi.Comm, s *sink) {
	msg := mpi.Recv64(c, 1)
	s.kept = append(s.kept[:0], msg...) // spread copies contents
	c.Recycle64(msg)
}

func consumedInPlace(c *mpi.Comm) int64 {
	msg := mpi.Recv64(c, 1)
	var sum int64
	for _, v := range msg {
		sum += v
	}
	c.Recycle64(msg)
	return sum
}
