// Package fixture exercises the exlifecycle analyzer: constructed
// exchangers and async-routed graphs must reach Close. It is
// type-checked by the analyzer tests, never run.
package fixture

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// leak constructs an exchanger and forgets it: the drainer goroutine
// and its posted rounds leak.
func leak(g *dgraph.Graph) {
	ex := g.NewDeltaExchanger() // want "never closed"
	ex.Begin()
	_ = ex.Flush(nil)
}

// asyncLeak switches a graph it built into async mode — which spins up
// a drainer — and never closes it.
func asyncLeak(c *mpi.Comm, chunk []graph.Edge, dist dgraph.Distribution) {
	g, err := dgraph.FromEdgeChunks(c, 8, chunk, dist)
	if err != nil {
		return
	}
	g.SetAsyncExchange(true) // want "never closed"
	ex := g.Exchanger()
	ex.BeginValues(nil, nil, nil)
	ex.FlushValues()
}

// the shapes below close (or hand off) correctly and must produce no
// findings.

func deferred(g *dgraph.Graph) {
	ex := g.NewDeltaExchanger()
	defer ex.Close()
	ex.Begin()
	_ = ex.Flush(nil)
}

func cleanup(t *testing.T, g *dgraph.Graph) {
	ex := g.NewDeltaExchanger()
	t.Cleanup(func() { ex.Close() })
	ex.Begin()
	_ = ex.Flush(nil)
}

func asyncClosed(c *mpi.Comm, chunk []graph.Edge, dist dgraph.Distribution) {
	g, err := dgraph.FromEdgeChunks(c, 8, chunk, dist)
	if err != nil {
		return
	}
	defer g.Close()
	g.SetAsyncExchange(true)
	ex := g.Exchanger()
	ex.BeginValues(nil, nil, nil)
	ex.FlushValues()
}

// handsOff transfers ownership by passing the exchanger on.
func handsOff(g *dgraph.Graph) {
	ex := g.NewDeltaExchanger()
	drive(ex)
}

func drive(ex *dgraph.DeltaExchanger) {
	defer ex.Close()
	ex.Begin()
	_ = ex.Flush(nil)
}

// paramGraph toggles async on a caller-owned graph: the caller closes
// it, not this helper.
func paramGraph(g *dgraph.Graph) {
	g.SetAsyncExchange(true)
	ex := g.Exchanger()
	ex.BeginValues(nil, nil, nil)
	ex.FlushValues()
}
