package main

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"time"

	"himap"
	"himap/internal/arch"
	"himap/internal/ir"
	"himap/internal/mrrg"
	"himap/internal/route"
	"himap/internal/serve"
	"himap/internal/store"
	"himap/internal/systolic"
)

// perOp times reps batches of n calls and returns the median batch's
// time per call.
func perOp(reps, n int, fn func()) time.Duration {
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(median(per))
}

// runProbes times single layers directly through their public
// functions, on fixed inputs that do not depend on the workload, and
// records them in rep.metrics. Counts marked exact repeat run to run.
func runProbes(rep *report, cfg runConfig) {
	m := rep.metrics
	// n is a batch size; the smoke test runs one short batch of each probe.
	reps, n := 5, func(full int) int { return full }
	if cfg.tiny {
		reps, n = 1, func(full int) int { return max(1, full/20) }
	}

	// route: the 3-sink net of BenchmarkRouteSinkHotPath.
	{
		g := mrrg.New(arch.DefaultFabric(8, 8), 8)
		s := route.NewSession(g)
		src := mrrg.Node{T: 0, R: 0, C: 0, Class: mrrg.ClassFU}
		sinks := [][3]int{{4, 2, 2}, {8, 4, 4}, {14, 7, 7}}
		iter := func() {
			s.ResetKeepHistory()
			s.Reserve(src)
			net := s.NewNet(src)
			for _, t := range sinks {
				if _, _, err := s.RouteSink(net, g.OperandTargets(t[0], t[1], t[2])); err != nil {
					rep.fail("probe route.routesink: %v", err)
					return
				}
			}
		}
		iter() // grow the session's scratch before counting
		m["route.routesink.ns_per_op"] = float64(perOp(reps, n(2000), iter))
		// Mallocs, as testing.AllocsPerRun counts them: the floor of 29
		// in BenchmarkRouteSinkHotPath is stated in this unit.
		const nets = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < nets; i++ {
			iter()
		}
		runtime.ReadMemStats(&after)
		m["route.routesink.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / nets

		big := route.NewSession(mrrg.New(arch.DefaultFabric(16, 16), 8))
		m["route.reset_keep_history.ns_per_op"] = float64(perOp(reps, n(2000), big.ResetKeepHistory))
	}

	// mrrg: enumerate every successor of every node once.
	{
		g := mrrg.New(arch.DefaultFabric(16, 16), 8)
		nodes, edges := 0, 0
		sweep := func() {
			nodes, edges = 0, 0
			for t := 0; t < g.II; t++ {
				for r := 0; r < g.Fab.Rows; r++ {
					for c := 0; c < g.Fab.Cols; c++ {
						for slot := 0; slot < g.SlotsPerPE(); slot++ {
							cl, idx := g.SlotResource(slot)
							nodes++
							g.Succ(mrrg.Node{T: t, R: r, C: c, Class: cl, Idx: idx}, func(mrrg.Node) { edges++ })
						}
					}
				}
			}
		}
		d := perOp(reps, 1, sweep)
		m["mrrg.succ.ns_per_node"] = float64(d) / float64(nodes)
		m["mrrg.succ.edges"] = float64(edges)
		fab := arch.DefaultFabric(64, 64)
		if cfg.tiny {
			fab = arch.DefaultFabric(16, 16)
		}
		m["mrrg.new.us"] = float64(perOp(reps, 1, func() { sink = mrrg.New(fab, 8) })) / 1e3
	}

	// systolic: the scheme search of a 3-D and a 4-D kernel.
	{
		search := func(workers int) (time.Duration, int) {
			cands := 0
			d := perOp(reps, 1, func() {
				cands = 0
				for _, k := range []*himap.Kernel{himap.KernelGEMM(), himap.KernelTTM()} {
					cands += len(systolic.SearchN(k.DistanceVectors(), k.UniformBlock(3), 2, workers))
				}
			})
			return d, cands
		}
		d1, cands := search(1)
		dn, _ := search(runtime.NumCPU())
		m["systolic.searchn.ms"] = ms(d1)
		m["systolic.searchn_par.ms"] = ms(dn)
		m["systolic.candidates"] = float64(cands)
	}

	// kernel / ir: unroll one large block and cluster it.
	{
		k := himap.KernelGEMM()
		block := []int{16, 16, 16}
		if cfg.tiny {
			block = []int{4, 4, 4}
		}
		var dfg *ir.DFG
		m["kernel.build_dfg.ms"] = ms(perOp(reps, 1, func() {
			d, err := k.BuildDFG(block)
			if err != nil {
				rep.fail("probe kernel.build_dfg: %v", err)
			}
			dfg = d
		}))
		if dfg != nil {
			m["ir.build_isdg.ms"] = ms(perOp(reps, 1, func() {
				g, err := ir.BuildISDG(dfg)
				if err != nil {
					rep.fail("probe ir.build_isdg: %v", err)
				}
				sink = g
			}))
			m["ir.dfg_nodes"] = float64(len(dfg.Nodes))
		}
	}

	// serve codec and store: one GEMM 8x8 request and its response.
	{
		wire := serve.CompileRequestWire{Kernel: "GEMM", Fabric: serve.FabricSpec{Rows: 8, Cols: 8}}
		reqJSON := mustJSON(wire)
		m["serve.decode.us"] = float64(perOp(reps, n(2000), func() {
			if _, err := serve.DecodeRequest(bytes.NewReader(reqJSON)); err != nil {
				rep.fail("probe serve.decode: %v", err)
			}
		})) / 1e3
		m["serve.cachekey.us"] = float64(perOp(reps, n(2000), func() { sink = serve.CacheKey(&wire) })) / 1e3
		var hreq himap.Request
		m["serve.build_request.us"] = float64(perOp(reps, n(2000), func() {
			r, err := serve.BuildRequest(&wire, serve.Config{})
			if err != nil {
				rep.fail("probe serve.build_request: %v", err)
			}
			hreq = r
		})) / 1e3
		hreq.Options.Memo = himap.NewMemo()
		res, err := himap.CompileRequest(context.Background(), hreq)
		if err != nil {
			rep.fail("probe serve.encode: compile: %v", err)
			return
		}
		var body []byte
		m["serve.encode.ms"] = ms(perOp(reps, n(20), func() {
			b, err := serve.EncodeResponse(res)
			if err != nil {
				rep.fail("probe serve.encode: %v", err)
			}
			body = b
		}))
		m["serve.response_kb"] = float64(len(body)) / 1024

		dir, err := os.MkdirTemp(cfg.tmpRoot(), "store-probe-")
		if err != nil {
			rep.fail("probe store: %v", err)
			return
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			rep.fail("probe store: %v", err)
			return
		}
		key := serve.CacheKey(&wire)
		m["store.put.us"] = float64(perOp(reps, n(50), func() {
			if err := st.Put(key, body); err != nil {
				rep.fail("probe store.put: %v", err)
			}
		})) / 1e3
		m["store.get.us"] = float64(perOp(reps, n(50), func() {
			if _, ok := st.Get(key); !ok {
				rep.fail("probe store.get: entry missing")
			}
		})) / 1e3
		if fi, err := os.Stat(st.EntryPath(key)); err == nil {
			m["store.entry_kb"] = float64(fi.Size()) / 1024
		}
	}
}

// sink keeps probe results alive so the calls are not optimized away.
var sink any
