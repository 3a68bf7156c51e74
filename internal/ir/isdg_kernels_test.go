package ir_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

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

// forwardedISDG returns the ISDG ApplyForwarding builds for a kernel
// whose (0,2) dependence crosses two PEs when both dimensions map to
// space, so every such edge becomes a chain of two (0,1) steps.
func forwardedISDG(t *testing.T) *ir.ISDG {
	t.Helper()
	ij := kernel.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	k := &kernel.Kernel{
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
	block := []int{4, 6}
	d, g, err := k.BuildISDG(block)
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

// TestISDGDistanceVectors: on every evaluation and extension kernel at
// two blocks, and on a forwarded DFG, the distances BuildISDG collects in
// its one pass equal a map restatement over the DFG's edges.
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
	checkDistances(t, "HOP2 [4 6] forwarded", forwardedISDG(t))

	// A chain that meets (1,0) before (0,1), and (1,0) twice: the list is
	// in Key order, not in the order the edges meet the distances.
	d := ir.NewDFG([]int{3, 2})
	prev := d.AddNode(&ir.Node{Kind: ir.OpLoad, Name: "ld", BodyOp: -1, Iter: ir.IterVec{0, 0}, Tensor: "A", Index: ir.IterVec{0}}).ID
	for _, it := range []ir.IterVec{{0, 0}, {1, 0}, {1, 1}, {2, 1}} {
		n := d.AddNode(&ir.Node{Kind: ir.OpRoute, Name: "r", BodyOp: 0, Iter: it})
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

// isdgFootprintCeiling bounds what ir.BuildISDG allocates for GEMM
// 64×64×4 (16,384 iterations, 70,144 nodes): the cluster slabs, the
// point and node tables, and the distances. It measured 2.9 MB; a list
// of cluster edges with their adjacency took 6.9 MB.
const isdgFootprintCeiling = 3_500_000

// TestBuildISDGFootprint holds one large clustering under its byte
// ceiling, measured on a second call so process-wide first-use costs
// are not counted.
func TestBuildISDGFootprint(t *testing.T) {
	d, err := kernel.GEMM().BuildDFG([]int{64, 64, 4})
	if err != nil {
		t.Fatal(err)
	}
	var g *ir.ISDG
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
