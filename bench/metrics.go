package main

// metricDef documents one reported number. The end-to-end entries are
// the regression gate (BENCHMARK.json carries the same names, units,
// directions and bounds; TestBenchmarkJSONMatches keeps them in step);
// the per-layer entries have no bound and exist to explain a movement.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, share of the median
	what   string
}

// detBound is the bound of the deterministic quality metrics: they must
// repeat exactly, and a bound of literally 0 is avoided only so that a
// "spread within bound" check written with < still passes.
const detBound = 0.000001

// endToEnd is what a user of the compiler or the service sees. Every
// workload reports every entry (a "pass" is one run over the workload's
// fixed operation list: compiles, or for serve_mix HTTP requests).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of 3 set-ups: build inputs, start server/store, one untimed warm-up pass"},
	{"compile_s", "s", "lower", 0.25, "wall time of one pass: sum over the list of each compile's best time over the passes (serve_mix: best pass)"},
	{"compile_slowest_ms", "ms", "lower", 0.25, "the slowest single operation of a pass, at its best over the passes"},
	{"alloc_mb", "MB", "lower", 0.05, "heap bytes allocated per pass (runtime/metrics /gc/heap/allocs:bytes), median"},
	{"peak_rss_mb", "MB", "lower", 0.20, "VmHWM after the timed passes, before the correctness gate runs"},
	{"ii_geomean", "cycles", "lower", detBound, "geometric mean of the initiation interval over the workload's distinct inputs"},
	{"utilization_mean", "ratio", "higher", detBound, "mean FU utilization over the distinct inputs"},
	{"mops_per_mw_geomean", "MOPS/mW", "higher", detBound, "PowerModelFor(fabric) efficiency of each emitted configuration, geomean"},
	{"bitstream_kb", "KB", "lower", detBound, "summed configuration-memory image size of the distinct inputs"},
}

// himapStages are the ten pipeline stages, in execution order.
var himapStages = []string{
	"idfg-map", "scheme-search", "block-derive", "isdg-build", "forward",
	"place", "unique", "route", "replicate", "validate",
}

// perLayer is reported by the traced run. Entries a workload does not
// execute read 0 there (flat_backends runs no himap stage, compile
// workloads serve no request).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, st := range himapStages {
		out = append(out, metricDef{"himap." + st + ".ms", "ms", "lower", 0, "stage wall summed over one traced pass, all attempts; median over passes"})
	}
	return append(out, []metricDef{
		{"himap.self.ms", "ms", "lower", 0, "compile span minus the time its stage spans cover, per pass"},
		{"himap.attempts", "count", "lower", 0, "(sub-mapping, scheme) attempts executed per pass, speculative ones included"},
		{"himap.route_rounds", "count", "lower", 0, "negotiated-congestion rounds per pass"},
		{"himap.canonical_nets", "count", "lower", 0, "canonical nets routed per pass"},
		{"himap.unique_iters", "count", "lower", 0, "unique iteration classes of the committed mappings, per pass"},
		{"himap.clusters", "count", "lower", 0, "ISDG clusters of the committed mappings, per pass"},
		{"himap.unique_ratio", "ratio", "lower", 0, "unique_iters / clusters: the share of iterations HiMap must actually route"},
		{"himap.attempt_success_ratio", "ratio", "higher", 0, "committed compiles / attempts executed: 1 means no wasted attempt"},
		{"himap.memo_hits", "count", "higher", 0, "artifact-memo hits per pass (fresh memo per compile)"},
		{"himap.memo_misses", "count", "lower", 0, "artifact-memo misses per pass"},
		{"himap.allocs_per_compile", "count", "lower", 0, "heap objects allocated per compile"},

		{"route.routesink.ns_per_op", "ns", "lower", 0, "one 3-sink net on an 8x8, II 8 session (BenchmarkRouteSinkHotPath)"},
		{"route.routesink.allocs_per_op", "count", "lower", 0, "heap objects per 3-sink net; the floor is 29"},
		{"route.reset_keep_history.ns_per_op", "ns", "lower", 0, "Session.ResetKeepHistory on 16x16, II 8"},
		{"mrrg.succ.ns_per_node", "ns", "lower", 0, "full Succ sweep of a 16x16, II 8 graph, per node"},
		{"mrrg.succ.edges", "count", "lower", 0, "edges that sweep enumerates (exact)"},
		{"mrrg.new.us", "us", "lower", 0, "mrrg.New on 64x64, II 8"},
		{"systolic.searchn.ms", "ms", "lower", 0, "SearchN over GEMM and TTM dependences, 1 worker"},
		{"systolic.searchn_par.ms", "ms", "lower", 0, "the same search sharded over nproc workers"},
		{"systolic.candidates", "count", "lower", 0, "scheme candidates that search returns (exact)"},
		{"kernel.build_dfg.ms", "ms", "lower", 0, "GEMM.BuildDFG at block 16x16x16"},
		{"ir.build_isdg.ms", "ms", "lower", 0, "ir.BuildISDG of that DFG"},
		{"ir.dfg_nodes", "count", "lower", 0, "nodes of that DFG (exact)"},

		{"baseline.dfg-build.ms", "ms", "lower", 0, "conventional mapper stage wall per traced pass"},
		{"baseline.place.ms", "ms", "lower", 0, "simulated-annealing placement, all II attempts"},
		{"baseline.route.ms", "ms", "lower", 0, "route.RouteDFG, all II attempts"},
		{"baseline.ii_attempts", "count", "lower", 0, "II values the conventional mapper tried per pass"},
		{"exact.dfg-build.ms", "ms", "lower", 0, "exact mapper DFG unroll per traced pass"},
		{"exact.search.ms", "ms", "lower", 0, "branch-and-bound search wall per traced pass"},
		{"exact.ii_attempts", "count", "lower", 0, "II values the exact mapper searched per pass"},
		{"exact.proved_share", "ratio", "higher", 0, "exact results carrying a proved-minimal certificate"},

		{"sim.validate.ms", "ms", "lower", 0, "cycle-accurate validation of the gate's inputs (the gate's own cost)"},
		{"arch.encode.ms", "ms", "lower", 0, "EncodeBitstream of the gate's inputs"},
		{"arch.config_validate.ms", "ms", "lower", 0, "Config.Validate of the gate's inputs"},

		{"serve.decode.us", "us", "lower", 0, "serve.DecodeRequest of one compile request"},
		{"serve.cachekey.us", "us", "lower", 0, "serve.CacheKey of it"},
		{"serve.build_request.us", "us", "lower", 0, "serve.BuildRequest of it"},
		{"serve.encode.ms", "ms", "lower", 0, "serve.EncodeResponse of a GEMM 8x8 result"},
		{"serve.response_kb", "KB", "lower", 0, "size of that response body"},
		{"serve.hit.count", "count", "higher", 0, "requests answered from the LRU, all traced passes"},
		{"serve.store.count", "count", "higher", 0, "requests answered from the disk store"},
		{"serve.miss.count", "count", "lower", 0, "requests that compiled"},
		{"serve.coalesced.count", "count", "higher", 0, "requests that waited on another request's compile"},
		{"serve.store.p99_ms", "ms", "lower", 0, "store-path tail (highest percentile with 10 samples beyond it)"},
		{"serve.miss.p90_ms", "ms", "lower", 0, "miss-path tail"},
		{"serve.snapshot.requests", "count", "higher", 0, "Metrics().Snapshot() counter, summed over traced passes"},
		{"serve.snapshot.compiles", "count", "lower", 0, "same, compiles executed"},
		{"serve.snapshot.cache_hits", "count", "higher", 0, "same, LRU + store hits"},
		{"serve.snapshot.cache_misses", "count", "lower", 0, "same"},
		{"serve.snapshot.failures", "count", "lower", 0, "same, compiles that errored"},
		{"serve.snapshot.rejected", "count", "lower", 0, "same, 429 admissions"},
		{"store.put.us", "us", "lower", 0, "store.Put of that response body"},
		{"store.get.us", "us", "lower", 0, "store.Get of it (read + SHA-256 verify)"},
		{"store.entry_kb", "KB", "lower", 0, "on-disk size of the entry"},

		{"serve_rps", "req/s", "higher", 0, "completed requests / wall of the best pass, closed loop, 2 clients"},
		{"serve_hit_p50_ms", "ms", "lower", 0, "client-side latency median, X-Himap-Cache: hit"},
		{"serve_store_p50_ms", "ms", "lower", 0, "client-side latency median, X-Himap-Cache: store"},
		{"serve_miss_p50_ms", "ms", "lower", 0, "client-side latency median, X-Himap-Cache: miss"},
		{"serve_hit_p99_ms", "ms", "lower", 0, "hit-path tail (highest percentile with 10 samples beyond it)"},
		{"failed_share", "ratio", "lower", 0, "operations that errored, were refused or failed the gate / attempted"},
		{"trace_overhead_pct", "%", "lower", 0, "traced vs untraced compile_s, from alternating passes in one process"},
	}...)
}()
