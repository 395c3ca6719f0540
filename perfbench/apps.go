package main

import (
	"fmt"
	"time"

	"repro/internal/analytics"
	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/spmv"
)

// analyticsList is the paper's six analytics in Fig. 8's order, called
// one by one with analytics.RunAll's parameters so each gets its own span.
var analyticsList = []struct {
	name string
	run  func(g *dgraph.Graph, hcSources int) analytics.Result
}{
	{"HC", func(g *dgraph.Graph, hc int) analytics.Result {
		_, r := analytics.HarmonicCentrality(g, analytics.HCSourceList(hc, g.NGlobal))
		return r
	}},
	{"KC", func(g *dgraph.Graph, _ int) analytics.Result { _, r := analytics.KCore(g, 50); return r }},
	{"LP", func(g *dgraph.Graph, _ int) analytics.Result { _, r := analytics.LabelProp(g, 10); return r }},
	{"PR", func(g *dgraph.Graph, _ int) analytics.Result { _, r := analytics.PageRank(g, 20, 0.85); return r }},
	{"SCC", func(g *dgraph.Graph, _ int) analytics.Result { _, r := analytics.SCC(g); return r }},
	{"WCC", func(g *dgraph.Graph, _ int) analytics.Result { _, r := analytics.WCC(g); return r }},
}

// layouts are the SpMV nonzero layouts, with their metric names.
var layouts = []struct {
	name   string
	layout spmv.Layout
}{{"1d", spmv.OneD}, {"2d", spmv.TwoD}}

// appsWorkload is apps-powerlaw: set-up partitions the graph into one
// part per rank, and the timed operation runs the six analytics and
// SpMV in 1D and 2D, once on the sync engine and once on the async one.
type appsWorkload struct {
	gen       func(seed uint64) *input
	hcSources int
	spmvIters int
}

// engineOut is one engine's results on rank 0, with counters summed over
// ranks.
type engineOut struct {
	results    [6]analytics.Result
	spmv       [2]spmv.Result
	spmvElems  [2]int64
	analyticsS time.Duration // rank 0's wall time of the six analytics
	spmvS      time.Duration // rank 0's wall time of both SpMV runs
	anaStats   mpi.Stats     // during the six analytics
	spmvErr    [2]error
	buildErr   error
}

// engine runs the six analytics and both SpMV layouts on one engine.
func (w appsWorkload) engine(r *runner, in *input, parts []int32, async bool, tr *tracer) engineOut {
	eng := engineName(async)
	var out engineOut
	var stats [ranks]mpi.Stats
	var elems [ranks][2]int64
	var buildErrs [ranks]error
	mpi.RunWorld(mpi.NewProcWorld(ranks), 1, func(c *mpi.Comm) {
		rank := c.Rank()
		tr.begin(rank, "dgraph.build")
		dg, err := dgraph.FromEdgeChunks(c, in.n, in.chunks[rank], dgraph.PartsDist{Parts: parts})
		tr.end(rank)
		if err != nil {
			buildErrs[rank] = err // symmetric: the parts are shared
			return
		}
		dg.SetAsyncExchange(async)
		if rank == 0 {
			r.heap()
		}
		s0 := c.Stats()
		t0 := time.Now()
		for i, a := range analyticsList {
			tr.begin(rank, "analytics."+eng+"."+a.name)
			res := a.run(dg, w.hcSources)
			tr.end(rank)
			if rank == 0 {
				out.results[i] = res
			}
		}
		ana := time.Since(t0)
		stats[rank] = statsSub(c.Stats(), s0)
		dg.Close()
		if rank == 0 {
			r.heap()
		}

		t1 := time.Now()
		for l, lay := range layouts {
			tr.begin(rank, "spmv."+eng+"."+lay.name)
			res, err := spmv.Run(c, in.shared, parts, spmv.Options{Layout: lay.layout, Iterations: w.spmvIters, Async: async})
			tr.end(rank)
			elems[rank][l] = res.CommVolume
			if rank == 0 {
				out.spmv[l], out.spmvErr[l] = res, err
				r.heap()
			}
		}
		if rank == 0 {
			out.analyticsS, out.spmvS = ana, time.Since(t1)
		}
	})
	out.buildErr = buildErrs[0]
	out.anaStats = statsSum(stats[:])
	for l := range layouts {
		out.spmvElems[l] = elems[0][l] + elems[1][l]
	}
	return out
}

func engineName(async bool) string {
	if async {
		return "async"
	}
	return "sync"
}

func (w appsWorkload) run(r *runner) error {
	var firstHash uint64
	var first [2]engineOut
	firstPass := true
	return r.loop(func(traced bool) error {
		tr := r.tracerFor(traced)

		// Set-up: generate the edge chunks, build the shared-memory
		// graph SpMV reads, and partition into one part per rank, so the
		// applications run on the distribution XtraPuLP chose.
		t0 := time.Now()
		tr.begin(loopTrack, "gen.chunks")
		g0 := time.Now()
		in := w.gen(r.cfg.seed)
		gd := time.Since(g0)
		tr.end(loopTrack)
		tr.begin(loopTrack, "graph.build")
		err := in.buildShared()
		tr.end(loopTrack)
		if err != nil {
			return err
		}
		job := partJob{in: in, parts: ranks}
		var rec *iterRecorder
		if traced {
			rec = &iterRecorder{}
		}
		var part partOut
		p0 := time.Now()
		err = protect(func() {
			var err error
			part, err = job.run(r, mpi.NewProcWorld(ranks), tr, rec)
			if err != nil {
				panic(err)
			}
		})
		pd := time.Since(p0)
		if err == nil {
			err = job.verify(part, &firstHash)
		}
		r.op("partition", err)
		if err != nil {
			return nil
		}
		r.time("setup_s", traced, time.Since(t0))
		r.time("partition_s", traced, pd)
		r.noteQuality(part.rep.Quality)
		if firstPass {
			r.noteBalance(in.shared, ranks)
		}
		if traced {
			r.noteDur("gen.chunk_s", gd)
			r.note("gen.edges", float64(in.edges()))
			r.notePartition(part, tr, p0, rec)
		}

		// The timed operation: the analytics and SpMV on both engines.
		var outs [2]engineOut
		r.heapReset()
		t0 = time.Now()
		for e, async := range []bool{false, true} {
			err := protect(func() { outs[e] = w.engine(r, in, part.parts, async, tr) })
			if err == nil {
				err = outs[e].buildErr
			}
			if err != nil {
				// The world unwound: every operation of this engine failed.
				for range len(analyticsList) + len(layouts) {
					r.op("analytics/spmv "+engineName(async), err)
				}
				return nil
			}
		}
		wall := time.Since(t0)
		if firstPass {
			first, firstPass = outs, false
		}
		if !w.checkPass(r, outs, first) {
			return nil
		}
		r.time("op_s", traced, wall)
		r.heapSample()
		r.time("analytics_s", traced, outs[0].analyticsS)
		r.time("analytics_async_s", traced, outs[1].analyticsS)
		r.time("spmv_s", traced, outs[0].spmvS)
		r.time("spmv_async_s", traced, outs[1].spmvS)
		if traced {
			w.notePass(r, tr, t0, outs)
			r.noteCoverage(tr, t0, wall)
		}
		return nil
	})
}

// checkPass counts the pass's operations and checks them: each
// analytic's value must agree between the engines and with the first
// pass, and the four SpMV checksums must agree with each other and with
// the first pass. It reports whether every operation passed.
func (w appsWorkload) checkPass(r *runner, outs, first [2]engineOut) bool {
	ok := true
	fail := func(name string, err error) {
		r.op(name, err)
		ok = ok && err == nil
	}
	for e, o := range outs {
		eng := engineName(e == 1)
		for i, a := range analyticsList {
			var err error
			if v, want := o.results[i].Value, first[e].results[i].Value; v != want {
				err = fmt.Errorf("value %v, first pass %v", v, want)
			} else if v, sync := o.results[i].Value, outs[0].results[i].Value; v != sync {
				err = fmt.Errorf("value %v, sync engine %v", v, sync)
			}
			fail("analytics "+eng+" "+a.name, err)
		}
		for l, lay := range layouts {
			err := o.spmvErr[l]
			if err == nil {
				if c, want := o.spmv[l].Checksum, first[0].spmv[0].Checksum; c != want {
					err = fmt.Errorf("checksum %v, sync 1d first pass %v", c, want)
				}
			}
			fail("spmv "+eng+" "+lay.name, err)
		}
	}
	return ok
}

// notePass records the per-layer figures of one traced pass.
func (w appsWorkload) notePass(r *runner, tr *tracer, since time.Time, outs [2]engineOut) {
	for e, o := range outs {
		eng := engineName(e == 1)
		var sweep time.Duration
		for i, a := range analyticsList {
			r.noteDur("analytics."+eng+"."+a.name+"_s", tr.total(0, "analytics."+eng+"."+a.name, since))
			r.note("analytics."+eng+"."+a.name+".iters", float64(o.results[i].Iterations))
			sweep += o.results[i].SweepTime
		}
		r.noteDur("analytics."+eng+".sweep_s", sweep)
		r.note("analytics."+eng+".reductions", float64(o.anaStats.ReductionOps)/ranks)
		r.note("analytics."+eng+".elems", float64(o.anaStats.ElemsSent))
		for l, lay := range layouts {
			pre := "spmv." + eng + "." + lay.name
			r.noteDur(pre+".build_s", tr.total(0, pre, since)-o.spmv[l].Time)
			r.noteDur(pre+".iter_s", o.spmv[l].Time)
			r.noteDur(pre+".multiply_s", o.spmv[l].MultiplyTime)
			r.note(pre+".comm_elems", float64(o.spmvElems[l]))
			r.note(pre+".reductions", float64(o.spmv[l].Reductions))
		}
	}
}
