package kernel_test

import (
	"testing"

	"himap/internal/himap"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/systolic"
)

// TestForwardingPreservesDFG: the forwarding transform's DFG computes
// what the DFG it rewrites does, by ExecuteDFG on both. HOP2 carries
// O[i][j-2] two PEs along dimension 1, so every hop past the first is a
// relay; MIX adds a distance-1 dependence beside it that stays as it
// was.
func TestForwardingPreservesDFG(t *testing.T) {
	ij := kernel.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	tensors := []kernel.TensorSpec{
		{Name: "A", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		{Name: "O", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
	}
	hop2 := kernel.BodyOp{Name: "hop2", Kind: ir.OpAdd, A: kernel.Fixed(kernel.Mem("A", ij)),
		B: kernel.In(kernel.Case{When: kernel.Pred{{Kind: kernel.CondIndexLt, Dim: 1, Val: 2}}, Src: kernel.Const(0)},
			kernel.Case{When: kernel.Always(), Src: kernel.Dep(0, 0, 2)})}
	stored := hop2
	stored.Stores = []kernel.StoreRule{{When: kernel.Always(), Tensor: "O", Map: ij}}
	hop1 := kernel.BodyOp{Name: "hop1", Kind: ir.OpAdd, A: kernel.Fixed(kernel.Same(0)),
		B:      kernel.In(kernel.Case{When: kernel.First(1), Src: kernel.Const(0)}, kernel.Case{When: kernel.Always(), Src: kernel.Dep(1, 0, 1)}),
		Stores: []kernel.StoreRule{{When: kernel.Always(), Tensor: "O", Map: ij}}}
	block := []int{4, 6}
	for _, k := range []*kernel.Kernel{
		{Name: "HOP2", Dim: 2, MinBlock: 4, Tensors: tensors, Body: []kernel.BodyOp{stored}},
		{Name: "MIX", Dim: 2, MinBlock: 4, Tensors: tensors, Body: []kernel.BodyOp{hop2, hop1}},
	} {
		d, g, err := k.BuildISDG(block)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		m := systolic.Scheme{SpaceDims: []int{0, 1}, Skew: []int{0, 1}}.Realize(block)
		nd, _, err := himap.ApplyForwarding(d, g, m)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if nd == d {
			t.Fatalf("%s: forwarding left the DFG as it was", k.Name)
		}
		in := k.DefaultInputs(block, 5)
		want, err := kernel.ExecuteDFG(k, d, in)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		got, err := kernel.ExecuteDFG(k, nd, in)
		if err != nil {
			t.Fatalf("%s forwarded: %v", k.Name, err)
		}
		if err := kernel.CompareOutputs(want, got); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}
