package himap

import (
	"context"
	"errors"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/systolic"
)

// TestForcedSchemeShapeRejected: a forced scheme is outside input. One
// that does not partition the kernel's dimensions into 1-2 space
// dimensions (with one skew each) and a time order fails the compile
// with ErrSchemeInfeasible naming the defect, before it is realized; so
// does one whose realization runs a dependence backwards in time.
func TestForcedSchemeShapeRejected(t *testing.T) {
	rows := []struct {
		name, want string
		sch        systolic.Scheme
	}{
		{"no space dimension", "scheme has 0 space dims, want 1 or 2", systolic.Scheme{TimePerm: []int{0, 1, 2}}},
		{"three space dimensions", "scheme has 3 space dims, want 1 or 2", systolic.Scheme{SpaceDims: []int{0, 1, 2}, Skew: []int{0, 0, 0}}},
		{"one skew for two space dimensions", "scheme has 1 skew coefficients for 2 space dims", systolic.Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{2}, Skew: []int{1}}},
		{"repeated dimension", "scheme dim 0 out of range or repeated", systolic.Scheme{SpaceDims: []int{0, 0}, TimePerm: []int{2}, Skew: []int{1, 1}}},
		{"dimension out of range", "scheme dim 5 out of range or repeated", systolic.Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{5}, Skew: []int{1, 1}}},
		{"dependences not forward in time", "has invalid offset", systolic.Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{2}, Skew: []int{0, 0}}},
	}
	for _, r := range rows {
		_, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), Options{ForceScheme: &r.sch})
		if !errors.Is(err, diag.ErrSchemeInfeasible) || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: %v, want ErrSchemeInfeasible containing %q", r.name, err, r.want)
		}
	}
}

// TestForwardingKeepsLocalEdges: under a mapping where one dependence
// needs forwarding and another reaches its neighbor directly, the
// forwarded DFG relays the first, keeps the second as it was and leaves
// only local dependences (that it computes what the original does is
// internal/kernel's TestForwardingPreservesDFG). A forward dependence
// that does not split into unit steps is refused.
func TestForwardingKeepsLocalEdges(t *testing.T) {
	ij := kernel.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	k := &kernel.Kernel{
		Name: "MIX", Dim: 2, MinBlock: 4,
		Tensors: []kernel.TensorSpec{
			{Name: "A", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "O", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		},
		Body: []kernel.BodyOp{
			{Name: "hop2", Kind: ir.OpAdd, A: kernel.Fixed(kernel.Mem("A", ij)),
				B: kernel.In(kernel.Case{When: kernel.Pred{{Kind: kernel.CondIndexLt, Dim: 1, Val: 2}}, Src: kernel.Const(0)}, kernel.Case{When: kernel.Always(), Src: kernel.Dep(0, 0, 2)})},
			{Name: "hop1", Kind: ir.OpAdd, A: kernel.Fixed(kernel.Same(0)),
				B:      kernel.In(kernel.Case{When: kernel.First(1), Src: kernel.Const(0)}, kernel.Case{When: kernel.Always(), Src: kernel.Dep(1, 0, 1)}),
				Stores: []kernel.StoreRule{{When: kernel.Always(), Tensor: "O", Map: ij}}},
		},
	}
	block := []int{4, 6}
	d, g, err := k.BuildISDG(block)
	if err != nil {
		t.Fatal(err)
	}
	m := systolic.Scheme{SpaceDims: []int{0, 1}, Skew: []int{0, 1}}.Realize(block)
	if m.Classify(ir.IterVec{0, 2}) != systolic.DepForward || m.Classify(ir.IterVec{0, 1}) != systolic.DepLocal {
		t.Fatal("the mapping must forward (0,2) and carry (0,1) directly")
	}
	nd, ng, err := ApplyForwarding(d, g, m)
	if err != nil {
		t.Fatal(err)
	}
	local := 0
	for _, e := range nd.Edges {
		if from, to := nd.Nodes[e.From], nd.Nodes[e.To]; from.BodyOp == 1 && to.BodyOp == 1 {
			local++
		}
	}
	if want := 4 * 5; local != want {
		t.Errorf("%d hop1 -> hop1 edges after forwarding, want the %d of the original", local, want)
	}
	for _, dv := range ng.DistanceVectors {
		if m.Classify(dv) != systolic.DepLocal {
			t.Errorf("dependence %v still non-local after forwarding", dv)
		}
	}

	k.Body = k.Body[:1]
	k.Body[0].B = kernel.In(kernel.Case{When: kernel.First(0), Src: kernel.Const(0)},
		kernel.Case{When: kernel.Pred{{Kind: kernel.CondIndexLt, Dim: 1, Val: 2}}, Src: kernel.Const(0)}, kernel.Case{When: kernel.Always(), Src: kernel.Dep(0, 1, 2)})
	k.Body[0].Stores = []kernel.StoreRule{{When: kernel.Always(), Tensor: "O", Map: ij}}
	if d, g, err = k.BuildISDG(block); err != nil {
		t.Fatal(err)
	}
	m = systolic.Scheme{SpaceDims: []int{0, 1}, Skew: []int{1, 1}}.Realize(block)
	if _, _, err := ApplyForwarding(d, g, m); !errors.Is(err, systolic.ErrInfeasible) || !strings.Contains(err.Error(), "does not decompose into unit steps") {
		t.Errorf("forwarding (1,2) under skew (1,1): %v, want the step refused", err)
	}
}

// TestPinOfOneHasNoInteriorIDFG: a kernel spec may pin a dimension to 1
// when its MinBlock is 0 or 1 (a wire spec can). Such a block has no
// interior iteration, so the IDFG stage fails with ErrBlockPinConflict,
// not a panic, and so does a second compile of the same kernel that finds
// the failure in the memo.
func TestPinOfOneHasNoInteriorIDFG(t *testing.T) {
	k := kernel.GEMM()
	k.MinBlock = 1
	k.FixedBlock = []int{0, 0, 1}
	memo := NewMemo()
	for i := range 2 {
		_, err := CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), Options{Memo: memo})
		if !errors.Is(err, diag.ErrBlockPinConflict) || !strings.Contains(err.Error(), "no interior cluster") {
			t.Errorf("compile %d: %v, want ErrBlockPinConflict naming the missing interior cluster", i+1, err)
		}
	}
}
