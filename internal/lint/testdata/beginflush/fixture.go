// Package fixture exercises the beginflush analyzer: split-phase
// rounds must be flushed, and never over-fill the pipeline. It is
// type-checked by the analyzer tests, never run.
package fixture

import "repro/internal/dgraph"

// leakRound opens a round and never settles it: the drainer holds the
// round forever.
func leakRound(ex *dgraph.DeltaExchanger) {
	ex.BeginTally(0) // want "no matching Flush"
}

// leakInterfaceRound opens a round through the round interface — the
// engine behind it is whichever the graph selected — and never settles
// it.
func leakInterfaceRound(g *dgraph.Graph, lids []int32, vals []int64) {
	ex := g.Exchanger()
	ex.BeginValues(lids, vals, nil) // want "no matching Flush"
}

// overfill posts more rounds than the pipeline depth configured right
// here: post blocks with no drainer progress.
func overfill(g *dgraph.Graph, lids []int32, vals []int64) {
	g.SetPipeDepth(2)
	ex := g.NewDeltaExchanger()
	defer ex.Close()
	ex.BeginValues(lids, vals, nil)
	ex.BeginValues(lids, vals, nil)
	ex.BeginValues(lids, vals, nil) // want "exceeds the pipeline depth 2"
	ex.FlushValues()
	ex.FlushValues()
	ex.FlushValues()
}

// the shapes below are correctly paired and must produce no findings.

func paired(ex *dgraph.DeltaExchanger, q []dgraph.Update) []dgraph.Update {
	ex.BeginTally(0)
	q, _ = ex.FlushTally(q, nil)
	return q
}

func pipelined(g *dgraph.Graph, lids []int32, vals []int64) {
	g.SetPipeDepth(2)
	ex := g.NewDeltaExchanger()
	defer ex.Close()
	ex.BeginValues(lids, vals, nil)
	for i := 0; i < 4; i++ {
		ex.BeginValues(lids, vals, nil)
		ex.FlushValues()
	}
	ex.FlushValues()
}

// handsOff passes the exchanger on: the pairing completes elsewhere.
func handsOff(ex *dgraph.DeltaExchanger) {
	ex.BeginTally(0)
	finish(ex)
}

func finish(ex *dgraph.DeltaExchanger) {
	var q []dgraph.Update
	q, _ = ex.FlushTally(q, nil)
	_ = q
}

// closeSettles: Close drains outstanding rounds.
func closeSettles(ex *dgraph.DeltaExchanger) {
	ex.BeginTally(0)
	ex.Close()
}
