package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/himap"
	"himap/internal/kernel"
	"himap/internal/par"
)

// BenchKernel is one row of the compile-cost report: a full HiMap
// compilation of a kernel at one CGRA size, with the heap traffic it
// generated.
type BenchKernel struct {
	Kernel      string  `json:"kernel"`
	Size        int     `json:"size"`
	WallMS      float64 `json:"wall_ms"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	IIB         int     `json:"peak_ii"`
	Utilization float64 `json:"utilization"`
	Attempts    int     `json:"attempts"`
	RouteRounds int     `json:"route_rounds"`
	// StageMS breaks the compile down by pipeline stage (from the JSON
	// tracer), summed over every attempt the search executed — so failed
	// speculative attempts show up as extra stage cost, and the stage sum
	// can exceed WallMS under Workers > 1.
	StageMS map[string]float64 `json:"stage_ms"`
}

// BenchReport is the machine-readable compile-cost snapshot written by
// `experiments -bench-json` (BENCH_compile.json). Per-kernel rows are
// measured sequentially so the alloc counters are attributable; the sweep
// row exercises the Workers fan-out end to end.
type BenchReport struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Kernels    []BenchKernel `json:"kernels"`
	// Sweep is a HiMap-only kernel×size sweep ({MVT, GEMM, TTM} ×
	// {4, 8, 16}) run through the parallel harness; WallMS is its total
	// wall-clock with the configured Workers.
	SweepPoints int     `json:"sweep_points"`
	SweepWallMS float64 `json:"sweep_wall_ms"`
	// FabricSweep scales the array size up to 64×64 for the fast
	// kernels, tracking the route and unique stage costs the router
	// rewrite targets.
	FabricSweep []FabricPoint `json:"fabric_sweep"`
	// ExploreSweep ranks the 8×8 design-space candidates for GEMM —
	// the serving-layer /v1/explore workload, kept in the bench report
	// so cost-model regressions surface as ranking or wall-clock
	// shifts.
	ExploreSweep []ExplorePoint `json:"explore_sweep"`
	// ExactGap pins the heuristic mappers against the exact solver on
	// small instances: per kernel, the exact II (with its certificate and
	// solver runtime) next to the SA II on the same block and the HiMap
	// II on the same fabric.
	ExactGap []ExactGapPoint `json:"exact_gap"`
}

// FabricPoint is one cell of the fabric-size scaling sweep: one kernel
// compiled cold at one array size, with the stage costs that dominate
// large-fabric compiles broken out.
type FabricPoint struct {
	Kernel      string  `json:"kernel"`
	Size        int     `json:"size"`
	WallMS      float64 `json:"wall_ms"`
	RouteMS     float64 `json:"route_ms"`
	UniqueMS    float64 `json:"unique_ms"`
	RouteRounds int     `json:"route_rounds"`
	Nets        int     `json:"nets"`
}

// BenchCompile compiles every evaluation kernel at the given size,
// recording wall-clock and heap-allocation deltas per kernel, then times a
// parallel kernel×size sweep with the given worker count.
func BenchCompile(size, workers int) (*BenchReport, error) {
	rep := &BenchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    par.Workers(workers),
	}
	var ms0, ms1 runtime.MemStats
	for _, k := range kernel.Evaluation() {
		// A fresh artifact memo keeps every row a cold compile, so the
		// wall-clock and alloc columns stay attributable to the kernel.
		col := diag.NewCollector()
		opts := himap.Options{Workers: 1, Tracer: col, Memo: himap.NewMemo()}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), opts)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("exp: bench %s %dx%d: %v", k.Name, size, size, err)
		}
		stageMS := map[string]float64{}
		for stage, d := range col.StageWall() {
			stageMS[stage] = float64(d.Microseconds()) / 1000
		}
		rep.Kernels = append(rep.Kernels, BenchKernel{
			Kernel:      k.Name,
			Size:        size,
			WallMS:      float64(wall.Microseconds()) / 1000,
			Allocs:      ms1.Mallocs - ms0.Mallocs,
			AllocBytes:  ms1.TotalAlloc - ms0.TotalAlloc,
			IIB:         res.IIB,
			Utilization: res.Utilization,
			Attempts:    res.Stats.Attempts,
			RouteRounds: res.Stats.RouteRounds,
			StageMS:     stageMS,
		})
	}

	sweepKernels := []*kernel.Kernel{kernel.MVT(), kernel.GEMM(), kernel.TTM()}
	sweepSizes := []int{4, 8, 16}
	type job struct {
		k *kernel.Kernel
		c int
	}
	var jobs []job
	for _, k := range sweepKernels {
		for _, c := range sweepSizes {
			jobs = append(jobs, job{k: k, c: c})
		}
	}
	start := time.Now()
	errs := par.Map(rep.Workers, len(jobs), func(i int) error {
		_, err := himap.CompileRequest(context.TODO(), jobs[i].k, arch.DefaultFabric(jobs[i].c, jobs[i].c), himap.Options{Workers: 1})
		return err
	})
	rep.SweepWallMS = float64(time.Since(start).Microseconds()) / 1000
	rep.SweepPoints = len(jobs)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: bench sweep %s %dx%d: %v", jobs[i].k.Name, jobs[i].c, jobs[i].c, err)
		}
	}

	// Fabric-size scaling: cold compiles of the fast kernels up to a
	// 64×64 mesh, with the route/unique stage cost per size.
	fabricKernels := []*kernel.Kernel{kernel.ADI(), kernel.ATAX(), kernel.BICG(), kernel.MVT()}
	for _, fsz := range []int{8, 16, 32, 64} {
		for _, k := range fabricKernels {
			col := diag.NewCollector()
			start := time.Now()
			res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(fsz, fsz),
				himap.Options{Workers: 1, Tracer: col, Memo: himap.NewMemo()})
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("exp: fabric sweep %s %dx%d: %v", k.Name, fsz, fsz, err)
			}
			sw := col.StageWall()
			rep.FabricSweep = append(rep.FabricSweep, FabricPoint{
				Kernel:      k.Name,
				Size:        fsz,
				WallMS:      float64(wall.Microseconds()) / 1000,
				RouteMS:     float64(sw[himap.StageRoute].Microseconds()) / 1000,
				UniqueMS:    float64(sw[himap.StageUnique].Microseconds()) / 1000,
				RouteRounds: res.Stats.RouteRounds,
				Nets:        res.Stats.CanonicalNets,
			})
		}
	}

	// Design-space sweep: GEMM across the fabric candidate set, ranked
	// by power efficiency under each fabric's own power model.
	rep.ExploreSweep = Explore(ExploreConfig{
		Kernels: []*kernel.Kernel{kernel.GEMM()},
		Fabrics: arch.ExploreFabrics(8, 8),
		Workers: rep.Workers,
	})

	// Quality gap vs the exact solver on 4×4 block-2 instances. The
	// budget bounds each kernel's search, not the proved-minimal rows
	// (those close in milliseconds).
	gap, err := ExactGap(4, 2, 30*time.Second)
	if err != nil {
		return nil, err
	}
	rep.ExactGap = gap
	return rep, nil
}

// JSON renders the report with stable indentation for committing next to
// the experiment logs.
func (r *BenchReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
