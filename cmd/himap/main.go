// Command himap maps a benchmark kernel onto a CGRA, optionally
// validates the mapping on the cycle-accurate simulator, and renders the
// resulting schedule. The -mapper flag selects the backend: the HiMap
// hierarchical algorithm (default), the conventional flat mapper, or the
// exact branch-and-bound mapper with optimality certificates.
//
// Usage:
//
//	himap -kernel GEMM -rows 8 -cols 8 -validate -render
//	himap -kernel BICG -rows 8 -cols 1                  # §II's linear array
//	himap -kernel MVT -mapper conventional -block 4     # conventional mapper
//	himap -kernel MVT -mapper exact -rows 4 -cols 4 -block 2  # proved-minimal II
//	himap -kernel GEMM -fabric torus                    # wrap-around links
//	himap -kernel FW -fabric torus -mem-pes boundary -validate
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"himap"
)

func main() {
	var (
		name     = flag.String("kernel", "GEMM", "kernel name (ADI, ATAX, BICG, MVT, GEMM, SYRK, FW, TTM, CONV2D, CONV3D, NW, DOITGEN, DOTPROD, RELU)")
		rows     = flag.Int("rows", 8, "CGRA rows")
		cols     = flag.Int("cols", 8, "CGRA columns")
		fabric   = flag.String("fabric", "mesh", "interconnect topology: "+himap.TopologyNames())
		memPEs   = flag.String("mem-pes", "all", "memory-capable PEs: "+himap.MemPolicyNames()+" (boundary = edge columns only)")
		bwClass  = flag.String("bandwidth", "unit", "link bandwidth class: "+himap.BandwidthNames())
		cost     = flag.String("cost", "balanced", "silicon cost corner for the power model: "+himap.CostClassNames())
		inner    = flag.Int("inner", 0, "inner block size b3.. for time-sequenced dimensions (0 = default; himap mapper only)")
		validate = flag.Bool("validate", false, "run cycle-accurate functional validation (3 pipelined blocks)")
		render   = flag.Bool("render", false, "render the space-time schedule")
		program  = flag.Bool("program", false, "print PE(0,0)'s instruction stream")
		itermap  = flag.Bool("itermap", false, "print the unique-iteration schedule map (Fig. 2 style)")
		bits     = flag.Bool("bitstream", false, "encode the configuration and report its size")
		mapper   = flag.String("mapper", "himap", "compilation backend: "+himap.BackendNames())
		block    = flag.Int("block", 0, "uniform block size for the conventional and exact mappers (0 = their defaults)")
		budget   = flag.Duration("exact-budget", 60*time.Second, "exact mapper search budget (0 = unbounded)")
		seed     = flag.Int64("seed", 42, "validation input seed")
		save     = flag.String("save", "", "write the mapping as JSON to this file")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "compilation worker count (1 = fully sequential; the mapping is identical either way)")
		trace    = flag.Bool("trace", false, "print one line per pipeline stage (wall time, attempt/launch generation, counters) to stderr")
	)
	flag.Parse()

	var tracer himap.Tracer
	if *trace {
		tracer = himap.NewTextTracer(os.Stderr)
	}

	k, err := himap.KernelByName(*name)
	if err != nil {
		fatal(err)
	}
	topo, err := himap.ParseTopology(*fabric)
	if err != nil {
		fatal(err)
	}
	mem, err := himap.ParseMemPolicy(*memPEs)
	if err != nil {
		fatal(err)
	}
	bw, err := himap.ParseBandwidth(*bwClass)
	if err != nil {
		fatal(err)
	}
	cc, err := himap.ParseCostClass(*cost)
	if err != nil {
		fatal(err)
	}
	fab := himap.Fabric{CGRA: himap.DefaultCGRA(*rows, *cols), Topology: topo, Mem: mem, Bandwidth: bw, Cost: cc}
	model := himap.PowerModelFor(fab)

	req := himap.Request{
		Kernel:   k,
		Fabric:   fab,
		Mapper:   himap.Mapper(*mapper),
		Options:  himap.Options{InnerBlock: *inner, Workers: *workers, Tracer: tracer},
		Baseline: himap.BaselineOptions{Seed: *seed, Workers: 1, Tracer: tracer}, // one SA chain: the chain count changes the mapping, -workers must not
		Exact:    himap.ExactOptions{Tracer: tracer},
	}
	if *block > 0 {
		req.Block = k.UniformBlock(*block)
	}

	ctx := context.Background()
	if req.Mapper == himap.MapperExact && *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}
	res, err := himap.CompileRequest(ctx, req)
	if err != nil {
		fatal(err)
	}

	fmt.Println(res.Summary())
	switch {
	case res.Exact != nil:
		opt := res.Optimality
		if opt.ProvedMinimal {
			fmt.Printf("optimality: II %d proved minimal (certificate: %s, %d states explored)\n",
				res.Config.II, opt.Certificate, opt.Explored)
		} else {
			fmt.Printf("optimality: II %d not proved minimal (lower bound %d, %d states explored)\n",
				res.Config.II, opt.IILowerBound, opt.Explored)
		}
		fmt.Printf("solve time: %v (%d leaves (%d screened), horizon %d)\n",
			res.Exact.Time, res.Exact.RoutedLeaves, res.Exact.ScreenedLeaves, opt.Horizon)
	case res.Conventional == nil:
		fmt.Printf("systolic mapping: %s\n", res.Mapping)
		fmt.Printf("compile time: %v (%d canonical nets, %d rounds; -trace prints per-stage times)\n",
			res.Stats.Total, res.Stats.CanonicalNets, res.Stats.RouteRounds)
	}
	fmt.Printf("performance: %.0f MOPS, power: %.1f mW, efficiency: %.1f MOPS/mW\n",
		model.PerformanceMOPS(res.Config), model.PowerMW(res.Config), model.EfficiencyMOPSPerMW(res.Config))
	if res.Conventional == nil && res.Exact == nil {
		fmt.Printf("configuration memory: max %d unique words per PE (depth %d)\n",
			res.Config.MaxUniqueInstrs(), fab.ConfigDepth)
	}

	if *validate {
		if err := himap.ValidateConfig(res.Config, k, res.Block, 3, *seed); err != nil {
			fatal(err)
		}
		fmt.Println("functional validation: PASS (3 pipelined blocks, cycle-accurate)")
	}
	if *render {
		fmt.Print(himap.RenderSchedule(res.Config))
	}
	if *program {
		fmt.Print(himap.RenderPEProgram(res.Config, 0, 0))
	}
	if *itermap && res.Conventional == nil && res.Exact == nil {
		fmt.Print(res.IterationMap())
	}
	if *bits {
		bs, err := himap.EncodeBitstream(res.Config)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("bitstream: %d bytes total, max %d configuration words per PE\n",
			bs.TotalBytes(), bs.MaxWordsPerPE())
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := himap.SaveConfig(res.Config, f); err != nil {
			fatal(err)
		}
		fmt.Printf("mapping written to %s\n", *save)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "himap:", err)
	os.Exit(1)
}
