package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"himap"
	"himap/internal/serve"
)

// item is one compile of a workload's fixed list.
type item struct {
	name string
	req  himap.Request
}

// workload is one benchmark input set. Compile workloads carry a fixed
// item list; serve_mix carries none and runs the request mix below.
type workload struct {
	name string
	why  string
	// workers is Options.Workers of every HiMap compile in the list.
	workers int
	items   func(tiny bool) []item
}

func parWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// workloads is the benchmark: the list, its order and the per-compile
// inputs are fixed here. BENCHMARK.json repeats name and why.
var workloads = []workload{
	{
		name:    "paper_small",
		why:     "8 evaluation kernels x {8x8,16x16} default mesh: front stages and route carry the most, replication is small; the common-case reference row",
		workers: 1,
		items:   paperItems,
	},
	{
		name:    "paper_par",
		why:     "paper_small's inputs at Workers=min(nproc,4): speculative waves, sharded search, route waves; a parallelism change shows here and not on paper_small",
		workers: parWorkers(),
		items:   paperItems,
	},
	{
		name:    "scale64",
		why:     "5 kernels x {32x32,64x64}: replicate+validate+isdg-build dominate and route is small, so a router gain predicts no change here",
		workers: 1,
		items:   scaleItems,
	},
	{
		name:    "congested",
		why:     "8x8 diag, narrow-rf, bus and boundary-memory fabrics: 7-35 attempts per compile, route and mrrg do the work and replicate almost none; mirror of scale64",
		workers: 1,
		items:   congestedItems,
	},
	{
		name:    "flat_backends",
		why:     "conventional SA and exact branch-and-bound on 8 kernels at 4x4: the same route core used flat through RouteDFG, and the only guard on baseline and exact",
		workers: 1,
		items:   flatItems,
	},
	{
		name: "serve_mix",
		why:  "in-process himapd, closed loop, 2 clients, Zipf mix over 144 keys with the LRU holding a third of the bytes: hit, store and miss paths all carry traffic",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func mustKernel(name string) *himap.Kernel {
	k, err := himap.KernelByName(name)
	if err != nil {
		panic(err) // the names below are compile-time constants of the registry
	}
	return k
}

func himapItem(kname string, fab himap.Fabric, tag string) item {
	return item{
		name: fmt.Sprintf("%s/%dx%d%s", kname, fab.Rows, fab.Cols, tag),
		req:  himap.Request{Kernel: mustKernel(kname), Fabric: fab},
	}
}

var evalNames = []string{"ADI", "ATAX", "BICG", "MVT", "GEMM", "SYRK", "FW", "TTM"}

func paperItems(tiny bool) []item {
	names, sides := evalNames, []int{8, 16}
	if tiny {
		names, sides = []string{"GEMM", "MVT"}, []int{4}
	}
	var out []item
	for _, n := range names {
		for _, s := range sides {
			out = append(out, himapItem(n, himap.DefaultFabric(s, s), ""))
		}
	}
	return out
}

func scaleItems(tiny bool) []item {
	names, sides := []string{"ADI", "ATAX", "BICG", "MVT", "GEMM"}, []int{32, 64}
	if tiny {
		names, sides = []string{"ADI"}, []int{16}
	}
	var out []item
	for _, n := range names {
		for _, s := range sides {
			out = append(out, himapItem(n, himap.DefaultFabric(s, s), ""))
		}
	}
	return out
}

// congestedItems are constrained 8x8 fabrics on which every compile
// still succeeds; inputs that end in a typed infeasibility are left out
// so that failed stays 0.
func congestedItems(tiny bool) []item {
	side := 8
	variant := func(tag string, mod func(*himap.Fabric)) func(string) item {
		return func(kname string) item {
			fab := himap.DefaultFabric(side, side)
			mod(&fab)
			return himapItem(kname, fab, "/"+tag)
		}
	}
	diag := variant("diag", func(f *himap.Fabric) { f.Topology = himap.TopoMeshDiag })
	narrow := variant("narrow-rf", func(f *himap.Fabric) { f.Bandwidth = himap.BWNarrowRF })
	bus := variant("bus", func(f *himap.Fabric) { f.Bandwidth = himap.BWBus })
	memb := variant("mem-boundary", func(f *himap.Fabric) { f.Mem = himap.MemBoundary })
	if tiny {
		return []item{diag("BICG"), narrow("MVT")}
	}
	var out []item
	for _, n := range []string{"ATAX", "BICG"} {
		out = append(out, diag(n))
	}
	for _, n := range []string{"ATAX", "BICG", "MVT", "GEMM", "SYRK", "FW", "TTM"} {
		out = append(out, narrow(n))
	}
	for _, n := range []string{"MVT", "GEMM", "SYRK", "TTM"} {
		out = append(out, bus(n))
	}
	return append(out, memb("FW"))
}

// flatItems run both flat mappers with deterministic search budgets (no
// wall-clock budget), one SA chain, SA seed 1.
func flatItems(tiny bool) []item {
	names := evalNames
	if tiny {
		names = []string{"MVT"}
	}
	fab := himap.DefaultFabric(4, 4)
	var out []item
	for _, n := range names {
		k := mustKernel(n)
		out = append(out,
			item{name: n + "/4x4/conventional", req: himap.Request{
				Kernel: k, Fabric: fab, Mapper: himap.MapperConventional, Block: k.UniformBlock(2),
				Baseline: himap.BaselineOptions{Seed: 1, Workers: 1},
			}},
			item{name: n + "/4x4/exact", req: himap.Request{
				Kernel: k, Fabric: fab, Mapper: himap.MapperExact, Block: k.UniformBlock(2),
			}})
	}
	return out
}

// ---------------------------------------------------------------- serve_mix

// serveCacheBytes is the LRU budget of the serve_mix server: about a
// third of the 144 response bodies (33 MB in all), so the hot third of
// the Zipf mix is served from memory, the rest from the disk store.
const serveCacheBytes = 11 << 20

// serveRequests is the length of one pass's request list.
const serveRequests = 3600

// zipfExponent shapes the key popularity: weight of rank r is 1/(r+1)^s.
const zipfExponent = 0.9

// serveKey is one member of the request population.
type serveKey struct {
	name string
	wire serve.CompileRequestWire
	body []byte // the JSON the client posts
}

// servePopulation is 9 named kernels x sides {4,5,6,8} x {mesh,torus} x
// inner_block {default,2}: 144 distinct cache keys, every one of which
// compiles. Popularity rank is the order of a fixed shuffle, so hot keys
// mix small and large response bodies whatever the seed.
func servePopulation(tiny bool) []serveKey {
	names := append(append([]string(nil), evalNames...), "CONV2D")
	sides := []int{4, 5, 6, 8}
	if tiny {
		names, sides = []string{"GEMM", "MVT", "ATAX"}, []int{4}
	}
	var keys []serveKey
	for _, n := range names {
		for _, s := range sides {
			for _, topo := range []string{"", "torus"} {
				for _, ib := range []int{0, 2} {
					w := serve.CompileRequestWire{
						Kernel:  n,
						Fabric:  serve.FabricSpec{Rows: s, Cols: s, Topology: topo},
						Options: serve.OptionsSpec{InnerBlock: ib},
					}
					keys = append(keys, serveKey{
						name: fmt.Sprintf("%s/%dx%d/%s/ib%d", n, s, s, orMesh(topo), ib),
						wire: w, body: mustJSON(w),
					})
				}
			}
		}
	}
	rand.New(rand.NewSource(20210201)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func orMesh(topo string) string {
	if topo == "" {
		return "mesh"
	}
	return topo
}

// serveDraw is the request list of one pass: indices into the
// population. The multiset is the Zipf expectation itself (rank r gets
// round(n*w_r), at least 1), so every seed issues the same requests —
// the same misses, the same bytes — and the seed decides only their
// order, which is what the LRU reacts to.
func serveDraw(nkeys, n int, seed int64) []int {
	weights := make([]float64, nkeys)
	total := 0.0
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), zipfExponent)
		total += weights[r]
	}
	var draw []int
	for r, w := range weights {
		c := int(math.Round(float64(n) * w / total))
		if c < 1 {
			c = 1
		}
		for i := 0; i < c; i++ {
			draw = append(draw, r)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(draw), func(i, j int) { draw[i], draw[j] = draw[j], draw[i] })
	return draw
}
