package ir_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"himap/internal/arch"
	"himap/internal/himap"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/systolic"
)

// mapDistances restates ISDG.DistanceVectors over the DFG edges alone:
// the distinct non-zero differences between the iteration vectors of an
// edge's endpoints, keyed by their Key string.
func mapDistances(d *ir.DFG) map[string]bool {
	out := map[string]bool{}
	for _, e := range d.Edges {
		if dv := d.Nodes[e.To].Iter.Sub(d.Nodes[e.From].Iter); !dv.IsZero() {
			out[dv.Key()] = true
		}
	}
	return out
}

// checkDistances holds g.DistanceVectors to mapDistances: the same set,
// each once, sorted by Key, and each lexicographically positive (a
// dependence of a well-formed loop nest points forward in iteration
// order).
func checkDistances(t *testing.T, name string, g *ir.ISDG) {
	t.Helper()
	want := mapDistances(g.DFG)
	got := g.DistanceVectors
	keys := make([]string, len(got))
	for i, dv := range got {
		keys[i] = dv.Key()
		if dv.IsZero() || !dv.LexNonNegative() {
			t.Errorf("%s: distance %v is not lexicographically positive", name, dv)
		}
		if !want[keys[i]] {
			t.Errorf("%s: distance %v is on no DFG edge between iterations", name, dv)
		}
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("%s: distances %v not sorted by Key", name, keys)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Errorf("%s: distance (%s) listed twice", name, k)
		}
		seen[k] = true
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("%s: distance (%s) of a DFG edge is missing from %v", name, k, got)
		}
	}
}

// hop2Kernel's (0,2) dependence crosses two PEs when both dimensions map
// to space, so every such edge is forwarded as a chain of two (0,1)
// steps.
func hop2Kernel() *kernel.Kernel {
	ij := kernel.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	return &kernel.Kernel{
		Name: "HOP2", Desc: "synthetic distance-2 dependence", Suite: "custom",
		Dim: 2, MinBlock: 4,
		Tensors: []kernel.TensorSpec{
			{Name: "A", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "O", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		},
		Body: []kernel.BodyOp{{Name: "acc", Kind: ir.OpAdd,
			A: kernel.Fixed(kernel.Mem("A", ij)),
			B: kernel.In(
				kernel.Case{When: kernel.Before(1, 2), Src: kernel.Const(0)},
				kernel.Case{When: kernel.Always(), Src: kernel.Dep(0, 0, 2)}),
			Stores: []kernel.StoreRule{{When: kernel.Always(), Tensor: "O", Map: ij}}}},
	}
}

// stripeKernel stores row 1 a second time, under a guard inside the
// block, and wires its (0,1) dependence only where a guard lets it.
func stripeKernel() *kernel.Kernel {
	ij := kernel.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	out := func(b []int) []int { return []int{b[0], b[1]} }
	return &kernel.Kernel{
		Name: "STRIPE", Desc: "a store guarded inside the block", Suite: "custom",
		Dim: 2, MinBlock: 3,
		Tensors: []kernel.TensorSpec{{Name: "A", Dims: out}, {Name: "O", Out: true, Dims: out}, {Name: "S", Out: true, Dims: out}},
		Body: []kernel.BodyOp{{Name: "acc", Kind: ir.OpAdd,
			A: kernel.Fixed(kernel.Mem("A", ij)),
			B: kernel.In(
				kernel.Case{When: kernel.First(1), Src: kernel.Const(0)},
				kernel.Case{When: kernel.Always(), Src: kernel.Dep(0, 0, 1)}),
			Stores: []kernel.StoreRule{
				{When: kernel.Always(), Tensor: "O", Map: ij},
				{When: kernel.AtIndex(0, 1), Tensor: "S", Map: ij}}}},
	}
}

// lagKernel is HOP2 with a guard looser than its dependence: B is the
// constant for j < 3 although the (0,2) source is inside from j = 2. So
// the origin's shape recurs at a dependence's far end, and on a block 4
// wide in j one cluster (j = 2) has that end outside the block where
// another (j = 0) has it at the origin's shape.
func lagKernel() *kernel.Kernel {
	k := hop2Kernel()
	k.Name = "LAG3"
	k.Body[0].B = kernel.In(
		kernel.Case{When: kernel.Before(1, 3), Src: kernel.Const(0)},
		kernel.Case{When: kernel.Always(), Src: kernel.Dep(0, 0, 2)})
	return k
}

// forwardedISDG returns the ISDG ApplyForwarding builds for HOP2 on a
// block, under the scheme that maps both dimensions to space.
func forwardedISDG(t *testing.T, block []int) *ir.ISDG {
	t.Helper()
	d, g, err := hop2Kernel().BuildISDG(block)
	if err != nil {
		t.Fatal(err)
	}
	m := systolic.Scheme{SpaceDims: []int{0, 1}, Skew: []int{0, 1}}.Realize(block)
	fd, fg, err := himap.ApplyForwarding(d, g, m)
	if err != nil || fd == d {
		t.Fatalf("forwarding HOP2 %v: rebuilt %v, error %v", block, fd != d, err)
	}
	return fg
}

// TestISDGMatchesWalk holds the ISDG built from what the unroll and
// ApplyForwarding record — clusters, ClusterOf, distances, shape keys —
// and the DFG's node table to the walks over the finished DFG
// (ir.MatchesWalk), and the unroll's table to a reservation short of one
// row past what it uses: every evaluation and extension kernel and
// STRIPE at uniform blocks 2, 3, 4 and 8 (raised to the kernel's
// minimum), the ten (kernel, block) pairs of the scale64 workload, BICG
// at 6, LAG3, HOP2 forwarded at three blocks, and the DFG and ISDG of
// HOP2 compiles on an 8x8 mesh and torus.
func TestISDGMatchesWalk(t *testing.T) {
	check := func(name string, g *ir.ISDG) {
		t.Helper()
		if err := ir.MatchesWalk(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	build := func(k *kernel.Kernel, block []int) {
		t.Helper()
		d, g, err := k.BuildISDG(block)
		if err != nil {
			t.Fatalf("%s %v: %v", k.Name, block, err)
		}
		name := fmt.Sprintf("%s %v", k.Name, block)
		check(name, g)
		if slack := ir.NodeTableSlack(d); slack >= ir.BoxSize(block) {
			t.Errorf("%s: the node table reserves %d entries past its rows", name, slack)
		}
	}
	for _, k := range append(kernel.Evaluation(), append(kernel.Extensions(), stripeKernel(), lagKernel())...) {
		for _, b := range []int{2, 3, 4, 8} {
			build(k, k.UniformBlock(max(b, k.MinBlock)))
		}
	}
	for _, k := range []*kernel.Kernel{kernel.ADI(), kernel.ATAX(), kernel.BICG(), kernel.MVT()} {
		build(k, []int{32, 32})
		build(k, []int{64, 64})
	}
	build(kernel.GEMM(), []int{32, 32, 4})
	build(kernel.GEMM(), []int{64, 64, 4})
	build(kernel.BICG(), []int{6, 6}) // with 3, 4 and 8 above: the blocks BICG's skewed placement is tested at
	for _, block := range [][]int{{4, 6}, {4, 8}, {8, 8}} {
		check(fmt.Sprintf("HOP2 %v forwarded", block), forwardedISDG(t, block))
	}
	torus := arch.DefaultFabric(8, 8)
	torus.Topology = arch.TopoTorus
	for _, fab := range []arch.Fabric{arch.DefaultFabric(8, 8), torus} {
		res, err := himap.CompileRequest(context.Background(), hop2Kernel(), fab, himap.Options{Workers: 1})
		if err != nil {
			t.Fatalf("HOP2 on %v: %v", fab, err)
		}
		if res.ISDG.ShapeKey != nil {
			t.Errorf("HOP2 on %v: the compile did not forward (a forwarded DFG records no shapes)", fab)
		}
		check(fmt.Sprintf("HOP2 compiled on %v", fab), res.ISDG)
	}
}

// TestISDGDistanceVectors: on every evaluation and extension kernel at
// two blocks, and on a forwarded DFG, the distances the constructors
// state with AddDistance equal a map restatement over the DFG's edges.
func TestISDGDistanceVectors(t *testing.T) {
	kernels := append(kernel.Evaluation(), kernel.Extensions()...)
	for _, k := range kernels {
		for _, b := range []int{max(3, k.MinBlock), max(5, k.MinBlock+1)} {
			block := k.UniformBlock(b)
			_, g, err := k.BuildISDG(block)
			if err != nil {
				t.Fatalf("%s %v: %v", k.Name, block, err)
			}
			name := fmt.Sprintf("%s %v", k.Name, block)
			if k.HasInterIterationDeps() && len(g.DistanceVectors) == 0 {
				t.Errorf("%s: no distance vectors", name)
			}
			checkDistances(t, name, g)
		}
	}
	checkDistances(t, "HOP2 [4 6] forwarded", forwardedISDG(t, []int{4, 6}))

	// A chain that meets (1,0) before (0,1), and (1,0) twice: the list is
	// in Key order, not in the order the edges meet the distances.
	d := ir.NewDFG([]int{3, 2})
	prev := d.AddNode(&ir.Node{Kind: ir.OpLoad, Name: "ld", BodyOp: -1, Iter: ir.IterVec{0, 0}, Tensor: "A", Index: ir.IterVec{0}}).ID
	for i, it := range []ir.IterVec{{0, 0}, {1, 0}, {1, 1}, {2, 1}} {
		n := d.AddNode(&ir.Node{Kind: ir.OpRoute, Name: "r", BodyOp: 0, Iter: it})
		if i > 0 {
			d.AddDistance(it.Sub(d.Nodes[prev].Iter))
		}
		d.AddEdge(prev, n.ID, 0)
		prev = n.ID
	}
	g, err := ir.BuildISDG(d)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, "chain", g)
	if got := fmt.Sprint(g.DistanceVectors); got != "[(0,1) (1,0)]" {
		t.Errorf("chain: distances %s, want [(0,1) (1,0)]", got)
	}
}

// isdgFootprintCeiling bounds what ir.BuildISDG allocates to cluster GEMM
// 64×64×4 (16,384 iterations, 70,144 nodes) from the unroll's records:
// the cluster slabs, the node lists, the shape-key tables and the
// distances. The walk it replaced allocated 2.98 MB, with its point and
// node tables; a list of cluster edges with their adjacency took 6.9 MB.
const isdgFootprintCeiling = 2_500_000

// TestBuildISDGFootprint holds one large clustering under its byte
// ceiling, measured on a second call so process-wide first-use costs
// are not counted.
func TestBuildISDGFootprint(t *testing.T) {
	d, g, err := kernel.GEMM().BuildISDG([]int{64, 64, 4})
	if err != nil {
		t.Fatal(err)
	}
	build := func() {
		if g, err = ir.BuildISDG(d); err != nil {
			t.Fatal(err)
		}
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("GEMM 64x64x4: %d nodes, %d clusters, %d bytes", len(d.Nodes), len(g.Clusters), bytes)
	if bytes > isdgFootprintCeiling {
		t.Errorf("BuildISDG allocated %d bytes, ceiling is %d", bytes, isdgFootprintCeiling)
	}
}
