// Paper-artifact benchmarks: one testing.B benchmark per table and
// figure of the paper's evaluation (regenerating the underlying
// measurement), and the router hot path with its alloc-ceiling test.
// Run with
//
//	go test -bench=. -benchmem
//
// Every HiMap compile here takes a fresh Memo, so each iteration is the
// cold compile the paper's figures mean, not a replay of the process-wide
// artifact cache. cmd/experiments produces the full formatted tables and
// figures; EXPERIMENTS.md records paper-vs-measured values; the repo's
// performance record is bench/ + BENCHMARK.json.
package himap_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"himap/internal/arch"
	"himap/internal/baseline"
	"himap/internal/exact"
	core "himap/internal/himap"
	"himap/internal/kernel"
	"himap/internal/mrrg"
	"himap/internal/power"
	"himap/internal/route"
)

// ----------------------------------------------------------------- Table I

// BenchmarkTable1Categorize regenerates Table I's categorization.
func BenchmarkTable1Categorize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cat := kernel.Categorize(kernel.Catalog())
		if len(cat) != 5 {
			b.Fatal("bad categorization")
		}
	}
}

// ---------------------------------------------------------------- Table II

// BenchmarkTable2UniqueIters regenerates Table II's unique-iteration
// identification for every kernel.
func BenchmarkTable2UniqueIters(b *testing.B) {
	for _, k := range kernel.Evaluation() {
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), core.Options{Memo: core.NewMemo()})
				if err != nil {
					b.Fatal(err)
				}
				if res.UniqueIters == 0 {
					b.Fatal("no unique iterations")
				}
			}
		})
	}
}

// ------------------------------------------------------------------ Fig 7

// BenchmarkFig7HiMap regenerates Figure 7's HiMap series: utilization,
// MOPS, and MOPS/mW per (kernel, CGRA size). The metrics are reported as
// custom benchmark units.
func BenchmarkFig7HiMap(b *testing.B) {
	model := power.Default40nm()
	for _, k := range kernel.Evaluation() {
		for _, size := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("%s/%dx%d", k.Name, size, size), func(b *testing.B) {
				b.ReportAllocs()
				var res *core.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = core.CompileRequest(context.Background(), k, arch.DefaultFabric(size, size), core.Options{Memo: core.NewMemo()})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Utilization*100, "util%")
				b.ReportMetric(model.PerformanceMOPS(res.Config), "MOPS")
				b.ReportMetric(model.EfficiencyMOPSPerMW(res.Config), "MOPS/mW")
			})
		}
	}
}

// BenchmarkFig7Baseline regenerates Figure 7's BHC series on the sizes
// where the conventional mapper completes within a bench-friendly budget.
func BenchmarkFig7Baseline(b *testing.B) {
	model := power.Default40nm()
	cases := []struct {
		k     *kernel.Kernel
		size  int
		block int
	}{
		{kernel.BICG(), 4, 4},
		{kernel.MVT(), 4, 4},
		{kernel.GEMM(), 4, 3},
		{kernel.ADI(), 8, 4},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s/%dx%d", c.k.Name, c.size, c.size), func(b *testing.B) {
			b.ReportAllocs()
			var res *baseline.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = baseline.CompileRequest(context.Background(), c.k, arch.DefaultFabric(c.size, c.size),
					c.k.UniformBlock(c.block), baseline.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Utilization*100, "util%")
			b.ReportMetric(model.PerformanceMOPS(res.Config), "MOPS")
			b.ReportMetric(model.EfficiencyMOPSPerMW(res.Config), "MOPS/mW")
		})
	}
}

// ------------------------------------------------------------------ Fig 8

// BenchmarkFig8HiMapCompileTime regenerates Figure 8's HiMap compilation
// time series: per-iteration time IS the figure's measurement. The paper's
// observation — compile time roughly flat in block size because the
// number of unique iterations is constant — shows up directly in the
// ns/op column.
func BenchmarkFig8HiMapCompileTime(b *testing.B) {
	for _, k := range []*kernel.Kernel{kernel.MVT(), kernel.GEMM(), kernel.TTM()} {
		for _, size := range []int{4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/b%d", k.Name, size), func(b *testing.B) {
				b.ReportAllocs()
				inner := size
				if k.Dim >= 4 && inner > 8 {
					inner = 8
				}
				for i := 0; i < b.N; i++ {
					if _, err := core.CompileRequest(context.Background(), k, arch.DefaultFabric(size, size), core.Options{InnerBlock: inner, Memo: core.NewMemo()}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8BaselineCompileTime regenerates the BHC series up to its
// wall (block sizes the conventional mapper still closes).
func BenchmarkFig8BaselineCompileTime(b *testing.B) {
	for _, c := range []struct {
		k *kernel.Kernel
		b int
	}{
		{kernel.MVT(), 2}, {kernel.MVT(), 4},
		{kernel.GEMM(), 2}, {kernel.GEMM(), 3},
		{kernel.TTM(), 2},
	} {
		b.Run(fmt.Sprintf("%s/b%d", c.k.Name, c.b), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.CompileRequest(context.Background(), c.k, arch.DefaultFabric(c.b, c.b),
					c.k.UniformBlock(c.b), baseline.Options{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Wall demonstrates the baseline's hard failure beyond the
// node wall (near-instant rejection, matching "BHC fails to find a valid
// mapping beyond the block size of 8, 5, and 4").
func BenchmarkFig8Wall(b *testing.B) {
	k := kernel.GEMM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := baseline.CompileRequest(context.Background(), k, arch.DefaultFabric(8, 8), k.UniformBlock(8), baseline.Options{})
		if err == nil {
			b.Fatal("expected the node wall")
		}
	}
}

// ------------------------------------------------------- router hot path

// routeSinkIter returns one iteration of the negotiated-congestion
// router's inner loop: one net fanned out to three sinks at increasing
// space-time distance on an 8x8 MRRG, with the session's occupancy reset
// (history kept) first — the exact reuse pattern of the routing rounds
// in step 3.
func routeSinkIter(tb testing.TB) func() {
	g := mrrg.New(arch.DefaultFabric(8, 8), 8)
	s := route.NewSession(g)
	src := mrrg.Node{T: 0, R: 0, C: 0, Class: mrrg.ClassFU}
	sinks := [][3]int{{4, 2, 2}, {8, 4, 4}, {14, 7, 7}}
	return func() {
		s.ResetKeepHistory()
		s.Reserve(src)
		net := s.NewNet(src)
		for _, t := range sinks {
			if _, _, err := s.RouteSink(net, g.OperandTargets(t[0], t[1], t[2])); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkRouteSinkHotPath times routeSinkIter; allocs/op is the
// hot-path discipline metric TestRouteSinkAllocCeiling gates.
func BenchmarkRouteSinkHotPath(b *testing.B) {
	iter := routeSinkIter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// routeSinkAllocFloor is the steady-state allocation count of one
// routeSinkIter, recorded when the lean hot path landed (PR 1): net
// bookkeeping, per-sink Path, OperandTargets slices — zero from the
// search itself, whose generation-stamped scratch arrays and bucket
// queue are reused.
const routeSinkAllocFloor = 29

// TestRouteSinkAllocCeiling is the router's allocation check, measuring
// what the compiler and runtime actually did on the warmed session. With
// TestReplicateValidateAllocCeiling (internal/himap) it executes 38 of
// the 47 functions the deleted noalloc analyzer used to be pointed at
// (coverage-profiled in PR 21); of the other nine, those that remain —
// Fabric.LinkCapacity, arch.mod, Session.Reset/Unreserve/Hist, mrrg's
// Capacity — are one-line accessors off the routed path.
func TestRouteSinkAllocCeiling(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, routeSinkIter(t)); allocs > routeSinkAllocFloor {
		t.Fatalf("router hot path regressed: %.0f allocs per routed net, floor is %d", allocs, routeSinkAllocFloor)
	}
}

// ------------------------------------------------------ scale compile

// scaleCompileIter returns one cold compile of GEMM on the 64x64 mesh —
// the heaviest single compile of the scale64 workload — at Workers=1
// with a fresh memo, so every stage from unrolling to validation runs.
func scaleCompileIter(tb testing.TB) func() {
	k, fab := kernel.GEMM(), arch.DefaultFabric(64, 64)
	return func() {
		if _, err := core.CompileRequest(context.Background(), k, fab, core.Options{Workers: 1, Memo: core.NewMemo()}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkScaleCompile times scaleCompileIter. It is also the one-
// command profile of the large-fabric compile path:
//
//	go test -run '^$' -bench ScaleCompile -benchtime 3x -cpuprofile cpu.out .
func BenchmarkScaleCompile(b *testing.B) {
	iter := scaleCompileIter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// The allocation budget of one scaleCompileIter: the measured 12,244
// allocations and 45.2 MB plus 15 % (839,707 and 125.6 MB before the
// search window and the dense DFG/ISDG tables; 12,261 and 52.5 MB while
// every search node took 44 bytes and every session zeroed history and
// dedup marks over the whole key space; 46.7 MB while the acyclicity
// check topologically sorted every DFG). What a compile allocates at
// 64x64 is what HiMap's claim is about — work per unique iteration, not
// per PE — and it repeats exactly where the wall clock is noisy: search
// scratch sized by the array, or a hash-map entry or key string per
// unrolled node, each moves these numbers by tens of percent. The race
// detector adds 6 % and 7 %, inside the margin, so check.sh gates both.
const (
	scaleCompileMallocCeiling = 14_100
	scaleCompileByteCeiling   = 52_000_000
)

// coldAllocs runs iter once to warm process-wide state (kernel tables,
// fmt's pools, the router's lookahead table) and returns what a second
// run allocates.
func coldAllocs(iter func()) (mallocs, bytes uint64) {
	iter()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	iter()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestScaleCompileAllocBudget holds one large-fabric compile under both
// ceilings.
func TestScaleCompileAllocBudget(t *testing.T) {
	mallocs, bytes := coldAllocs(scaleCompileIter(t))
	t.Logf("GEMM 64x64: %d mallocs, %d bytes", mallocs, bytes)
	if mallocs > scaleCompileMallocCeiling {
		t.Errorf("GEMM 64x64 compile made %d allocations, ceiling is %d", mallocs, scaleCompileMallocCeiling)
	}
	if bytes > scaleCompileByteCeiling {
		t.Errorf("GEMM 64x64 compile allocated %d bytes, ceiling is %d", bytes, scaleCompileByteCeiling)
	}
}

// ---------------------------------------------------- congested compile

// congestedCompileIter returns one cold compile of each of the two
// heaviest router-bound compiles of the congested workload — FW on the
// 8x8 narrow-rf fabric and MVT on the 8x8 shared-bus fabric, 30-odd
// attempts and hundreds of PathFinder rounds between them — at Workers=1
// with a fresh memo.
func congestedCompileIter(tb testing.TB) func() {
	narrow, bus := arch.DefaultFabric(8, 8), arch.DefaultFabric(8, 8)
	narrow.Bandwidth, bus.Bandwidth = arch.BWNarrowRF, arch.BWBus
	fw, mvt := kernel.FW(), kernel.MVT()
	return func() {
		if _, err := core.CompileRequest(context.Background(), fw, narrow, core.Options{Workers: 1, Memo: core.NewMemo()}); err != nil {
			tb.Fatal(err)
		}
		if _, err := core.CompileRequest(context.Background(), mvt, bus, core.Options{Workers: 1, Memo: core.NewMemo()}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCongestedCompile times congestedCompileIter, sharing its
// iteration with nothing else. It is the one-command profile of the
// negotiated-congestion path:
//
//	go test -run '^$' -bench CongestedCompile -benchtime 5x -cpuprofile cpu.out .
func BenchmarkCongestedCompile(b *testing.B) {
	iter := congestedCompileIter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// The allocation budget of one congestedCompileIter: the measured 91,431
// allocations and 14.5 MB plus 25 % (the race detector adds 21 % and
// 15 %, most of it fmt's pooled printers, which a race build drops).
// Each compile routes its attempts on one window-worker session that
// every attempt re-targets, a negotiation round re-routes in the storage
// of the round before it — paths from the session's arena, plans, nets
// and sink lists reused, only forced bandwidth demands collected — and
// the session's searches take 20 bytes a node of windows clipped to the
// routing envelope, its history arriving with the first congestion.
// 44-byte search nodes over unclipped windows and history and dedup
// marks zeroed per compile made 17.0 MB, inside the ceiling; rounds that
// allocated their paths, plans and demands afresh on top of that,
// 304,065 allocations of 38.0 MB; a session per attempt on top of that,
// 341,515 of 82.7 MB. Both fail both ceilings.
const (
	congestedCompileMallocCeiling = 114_500
	congestedCompileByteCeiling   = 18_200_000
)

// TestCongestedAllocBudget holds the congested pair under both ceilings.
func TestCongestedAllocBudget(t *testing.T) {
	mallocs, bytes := coldAllocs(congestedCompileIter(t))
	t.Logf("FW 8x8 narrow-rf + MVT 8x8 bus: %d mallocs, %d bytes", mallocs, bytes)
	if mallocs > congestedCompileMallocCeiling {
		t.Errorf("congested pair made %d allocations, ceiling is %d", mallocs, congestedCompileMallocCeiling)
	}
	if bytes > congestedCompileByteCeiling {
		t.Errorf("congested pair allocated %d bytes, ceiling is %d", bytes, congestedCompileByteCeiling)
	}
}

// --------------------------------------------------- speculative window

// speculationAllocRatio bounds what a cold Workers=2 compile may allocate
// over its Workers=1 compile when attempt 1 wins. The window runs attempt
// 1 alone, so the two allocate the same (measured 0.98x for ATAX and
// 1.00x for GEMM at 16x16); fixed waves of two ran attempt 2 beside every
// winner and allocated 1.62x and 1.91x.
const speculationAllocRatio = 1.10

// TestSpeculationAllocBudget holds the cold Workers=2 compiles of ATAX and
// GEMM on the 16x16 default fabric, both won at attempt 1, to
// speculationAllocRatio times their Workers=1 compiles.
func TestSpeculationAllocBudget(t *testing.T) {
	fab := arch.DefaultFabric(16, 16)
	for _, k := range []*kernel.Kernel{kernel.ATAX(), kernel.GEMM()} {
		alloc := func(workers int) uint64 {
			_, bytes := coldAllocs(func() {
				res, err := core.CompileRequest(context.Background(), k, fab, core.Options{Workers: workers, Memo: core.NewMemo()})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Attempts != 1 {
					t.Fatalf("%s won at attempt %d, not 1", k.Name, res.Stats.Attempts)
				}
			})
			return bytes
		}
		one, two := alloc(1), alloc(2)
		t.Logf("%s 16x16: Workers=1 %d bytes, Workers=2 %d bytes (%.2fx)", k.Name, one, two, float64(two)/float64(one))
		if float64(two) > speculationAllocRatio*float64(one) {
			t.Errorf("%s 16x16: Workers=2 allocated %d bytes, more than %.2fx the %d of Workers=1", k.Name, two, speculationAllocRatio, one)
		}
	}
}

// -------------------------------------------------------- flat backends

// BenchmarkFlatBackends times the sixteen compiles of the flat_backends
// workload — the eight evaluation kernels at 4x4, block 2, through the
// exact branch-and-bound mapper and through the conventional SA mapper
// (seed 1, one chain) — one sub-benchmark per backend, so the profile of
// either is one command:
//
//	go test -run '^$' -bench FlatBackends/exact -benchtime 5x -cpuprofile cpu.out .
func BenchmarkFlatBackends(b *testing.B) {
	fab := arch.DefaultFabric(4, 4)
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range kernel.Evaluation() {
				if _, err := exact.CompileRequest(context.Background(), k, fab, k.UniformBlock(2), exact.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("conventional", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range kernel.Evaluation() {
				if _, err := baseline.CompileRequest(context.Background(), k, fab, k.UniformBlock(2), baseline.Options{Seed: 1, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// The allocation budget of one cold exact compile of GEMM at 4x4, block
// 2: the measured 25,207 allocations and 1.54 MB plus 25 %. Most of it is
// the detailed router's — up to eight negotiation rounds per complete
// placement it is shown, on the one session the compile re-targets per
// II, its paths carved from the session's arena — so the number moves
// with how many leaves reach the router: 65 of GEMM's 154 losing leaves
// do, the leaf screen refutes the other 89. 44-byte search nodes and
// history and dedup marks zeroed per II made 1.70 MB, inside the
// ceiling; a Path allocated
// per routed sink on top of that, 52,794 allocations of 4.8 MB; an MRRG
// and a session per leaf on top of that, 193,189 of 25.6 MB (one session
// per leaf on a per-II MRRG, 101,309 and 21.6 MB), and without the
// screen the compile made 450,622 of 58.2 MB.
const (
	flatExactMallocCeiling = 31_600
	flatExactByteCeiling   = 1_925_000
)

// TestFlatExactAllocBudget holds that compile under both ceilings.
func TestFlatExactAllocBudget(t *testing.T) {
	k, fab := kernel.GEMM(), arch.DefaultFabric(4, 4)
	mallocs, bytes := coldAllocs(func() {
		if _, err := exact.CompileRequest(context.Background(), k, fab, k.UniformBlock(2), exact.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("GEMM 4x4 exact: %d mallocs, %d bytes", mallocs, bytes)
	if mallocs > flatExactMallocCeiling {
		t.Errorf("GEMM 4x4 exact compile made %d allocations, ceiling is %d", mallocs, flatExactMallocCeiling)
	}
	if bytes > flatExactByteCeiling {
		t.Errorf("GEMM 4x4 exact compile allocated %d bytes, ceiling is %d", bytes, flatExactByteCeiling)
	}
}
