package kernel

import (
	"strings"
	"testing"

	"himap/internal/ir"
)

// rowSum is a well-formed two-level kernel every rejection test starts
// from: Y[i] = sum_j X[i][j], the sum carried along j.
func rowSum() *Kernel {
	ij := AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	return &Kernel{
		Name: "ROWSUM", Dim: 2, MinBlock: 1,
		Tensors: []TensorSpec{
			{Name: "X", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "Y", Out: true, Dims: func(b []int) []int { return []int{b[0]} }},
		},
		Body: []BodyOp{
			{Name: "x", Kind: ir.OpRoute, A: Fixed(Mem("X", ij))},
			{Name: "acc", Kind: ir.OpAdd, A: Fixed(Same(0)),
				B:      In(Case{First(1), Const(0)}, Case{Always(), Dep(1, 0, 1)}),
				Stores: []StoreRule{{When: Last(1), Tensor: "Y", Map: AM(2, []int{1, 0, 0})}}},
		},
	}
}

func TestRowSumIsWellFormed(t *testing.T) {
	k, block := rowSum(), []int{2, 3}
	out, err := k.Golden(block, k.DefaultInputs(block, 1))
	if err != nil {
		t.Fatal(err)
	}
	x := k.DefaultInputs(block, 1)["X"]
	for i := 0; i < 2; i++ {
		want := x.At(ir.IterVec{i, 0}) + x.At(ir.IterVec{i, 1}) + x.At(ir.IterVec{i, 2})
		if got := out["Y"].At(ir.IterVec{i}); got != want {
			t.Errorf("Y[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestValidateRejects: one row per rejection of Kernel.Validate, the
// checks every spec from outside (a wire spec through serve.BuildRequest)
// passes before any unroll. BuildDFG must refuse each with the same error.
func TestValidateRejects(t *testing.T) {
	ij := AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	rows := []struct {
		name, want string
		mut        func(k *Kernel)
	}{
		{"no loop levels", "Dim = 0", func(k *Kernel) { k.Dim = 0 }},
		{"pin below the minimum block", "FixedBlock[0] = 1 below MinBlock 2", func(k *Kernel) { k.MinBlock, k.FixedBlock = 2, []int{1} }},
		{"producer op out of range", "op 1 references body op 5 out of range", func(k *Kernel) { k.Body[1].A = Fixed(Same(5)) }},
		{"intra-iteration producer after its consumer", "op 0 intra-iteration source 1 does not precede it", func(k *Kernel) { k.Body[0].A = Fixed(Same(1)) }},
		{"intra-iteration producer is the consumer", "op 1 intra-iteration source 1 does not precede it", func(k *Kernel) { k.Body[1].A = Fixed(Same(1)) }},
		{"distance of the wrong length", "op 1 dep distance (1) has wrong dimensionality", func(k *Kernel) { k.Body[1].B = Fixed(Dep(1, 1)) }},
		{"negative distance", "op 1 dep distance (0,-1) is lexicographically negative", func(k *Kernel) { k.Body[1].B = Fixed(Dep(1, 0, -1)) }},
		{"load of an undeclared tensor", `op 0 loads undeclared tensor "Z"`, func(k *Kernel) { k.Body[0].A = Fixed(Mem("Z", ij)) }},
		{"load of an output tensor", `op 0 loads output tensor "Y"`, func(k *Kernel) { k.Body[0].A = Fixed(Mem("Y", ij)) }},
		{"affine row length", `op 0 tensor "X" affine row has 1 coefs, want 2`, func(k *Kernel) { k.Body[0].A = Fixed(Mem("X", AM(1, []int{1, 0}))) }},
		{"unknown source kind", "op 0 has unknown source kind 7", func(k *Kernel) { k.Body[0].A = Fixed(Source{Kind: 7}) }},
		{"binary op without A", "op 1 (acc) missing input A", func(k *Kernel) { k.Body[1].A = nil }},
		{"binary op without B", "op 1 (acc) missing input B", func(k *Kernel) { k.Body[1].B = nil }},
		{"unary op with B", "op 0 (x) has input B but arity 1", func(k *Kernel) { k.Body[0].B = Fixed(Const(1)) }},
		{"bad source on port B", "op 1 references body op 9 out of range", func(k *Kernel) { k.Body[1].B = In(Case{First(1), Const(0)}, Case{Always(), Same(9)}) }},
		{"store to an undeclared tensor", `op 1 stores to undeclared tensor "Z"`, func(k *Kernel) { k.Body[1].Stores[0].Tensor = "Z" }},
		{"store to an input tensor", `op 1 stores to input tensor "X"`, func(k *Kernel) { k.Body[1].Stores[0].Tensor = "X" }},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			k := rowSum()
			r.mut(k)
			err := k.Validate()
			if err == nil || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, r.want)
			}
			if _, berr := k.BuildDFG([]int{2, 3}); berr == nil || berr.Error() != err.Error() {
				t.Errorf("BuildDFG = %v, want Validate's %v", berr, err)
			}
		})
	}
}

// TestBuildDFGRejects: the refusals BuildDFG adds to Validate's, on a
// spec that validates.
func TestBuildDFGRejects(t *testing.T) {
	rows := []struct {
		name, want string
		block      []int
		mut        func(k *Kernel)
	}{
		{"block of the wrong rank", "block [2] has 1 dims, want 2", []int{2}, func(*Kernel) {}},
		{"block below the minimum", "block dim 0 is 1, min 2", []int{1, 3}, func(k *Kernel) { k.MinBlock = 2 }},
		{"no guard holds", "op acc port 1: kernel: no case matches at iteration (0,1)", []int{2, 3},
			func(k *Kernel) { k.Body[1].B = In(Case{First(1), Const(0)}) }},
		{"constant on port A", "op acc: constant sources are only supported on port 1", []int{2, 3},
			func(k *Kernel) { k.Body[1].A = Fixed(Const(3)) }},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			k := rowSum()
			r.mut(k)
			if err := k.Validate(); err != nil {
				t.Fatalf("the row's spec must validate: %v", err)
			}
			if _, err := k.BuildDFG(r.block); err == nil || !strings.Contains(err.Error(), r.want) {
				t.Errorf("BuildDFG(%v) = %v, want an error containing %q", r.block, err, r.want)
			}
		})
	}
}

// TestGoldenRejects: Golden runs the spec as written, unvalidated, and
// reports each way the spec or its inputs cannot be executed.
func TestGoldenRejects(t *testing.T) {
	rows := []struct {
		name, want string
		block      []int
		mut        func(k *Kernel)
		drop       string // input tensor left out
	}{
		{"block of the wrong rank", "block [2] has 1 dims, want 2", []int{2}, func(*Kernel) {}, ""},
		{"no guard holds", "no case matches at iteration (0,1)", []int{2, 3},
			func(k *Kernel) { k.Body[1].B = In(Case{First(1), Const(0)}) }, ""},
		{"producer outside the block", "op acc at (0,0): golden dependence outside block", []int{2, 3},
			func(k *Kernel) { k.Body[1].B = Fixed(Dep(1, 0, 1)) }, ""},
		{"input tensor missing", `missing input tensor "X"`, []int{2, 3}, func(*Kernel) {}, "X"},
		{"unknown source kind", "bad source kind", []int{2, 3}, func(k *Kernel) { k.Body[0].A = Fixed(Source{Kind: 7}) }, ""},
		{"memory op in the body", "body op x has non-body kind load", []int{2, 3}, func(k *Kernel) { k.Body[0].Kind = ir.OpLoad }, ""},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			k := rowSum()
			in := k.DefaultInputs([]int{2, 3}, 1)
			delete(in, r.drop)
			r.mut(k)
			if out, err := k.Golden(r.block, in); err == nil || !strings.Contains(err.Error(), r.want) {
				t.Errorf("Golden = %v, %v, want an error containing %q", out, err, r.want)
			}
		})
	}
}

// TestExecuteDFGRejects: ExecuteDFG evaluates any DFG it is handed and
// names the node it cannot evaluate.
func TestExecuteDFGRejects(t *testing.T) {
	block := []int{2, 3}
	node := func(kind ir.OpKind, tensor string) *ir.Node {
		return &ir.Node{Kind: kind, BodyOp: -1, Tensor: tensor, Index: ir.IterVec{0, 0}}
	}
	rows := []struct {
		name, want string
		build      func(d *ir.DFG)
	}{
		{"cycle", "dependence cycle", func(d *ir.DFG) {
			a, b := d.AddNode(node(ir.OpRoute, "")), d.AddNode(node(ir.OpRoute, ""))
			d.AddEdge(a.ID, b.ID, 0)
			d.AddEdge(b.ID, a.ID, 0)
		}},
		{"load of a missing tensor", `missing input tensor "Z"`, func(d *ir.DFG) { d.AddNode(node(ir.OpLoad, "Z")) }},
		{"store without input", "store node n0[store @()] has no input", func(d *ir.DFG) { d.AddNode(node(ir.OpStore, "Y")) }},
		{"store to a missing tensor", `missing output tensor "Q"`, func(d *ir.DFG) {
			ld, st := d.AddNode(node(ir.OpLoad, "X")), d.AddNode(node(ir.OpStore, "Q"))
			d.AddEdge(ld.ID, st.ID, 0)
		}},
		{"route without input", "route node n0[route @()] has no input", func(d *ir.DFG) { d.AddNode(node(ir.OpRoute, "")) }},
		{"binary op with one input", "missing inputs (a:true b:false)", func(d *ir.DFG) {
			ld, add := d.AddNode(node(ir.OpLoad, "X")), d.AddNode(node(ir.OpAdd, ""))
			d.AddEdge(ld.ID, add.ID, 0)
		}},
		{"nop", "cannot evaluate n0[nop @()]", func(d *ir.DFG) { d.AddNode(node(ir.OpNop, "")) }},
	}
	k := rowSum()
	in := k.DefaultInputs(block, 1)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			d := ir.NewDFG(block)
			r.build(d)
			if _, err := ExecuteDFG(k, d, in); err == nil || !strings.Contains(err.Error(), r.want) {
				t.Errorf("ExecuteDFG = %v, want an error containing %q", err, r.want)
			}
		})
	}
}

// TestCompareOutputsNamesTheMismatch: each way two output maps differ is
// reported, and equal maps are not.
func TestCompareOutputsNamesTheMismatch(t *testing.T) {
	y := func(dims ...int) *Tensor { return NewTensor(dims...) }
	changed := y(2)
	changed.Set(ir.IterVec{1}, 5)
	rows := []struct {
		name      string
		want, got map[string]*Tensor
		msg       string
	}{
		{"equal", map[string]*Tensor{"Y": y(2)}, map[string]*Tensor{"Y": y(2)}, ""},
		{"tensor count", map[string]*Tensor{"Y": y(2)}, map[string]*Tensor{}, "output tensor count mismatch: want 1, got 0"},
		{"tensor name", map[string]*Tensor{"Y": y(2)}, map[string]*Tensor{"W": y(2)}, `missing output tensor "Y"`},
		{"element", map[string]*Tensor{"Y": y(2)}, map[string]*Tensor{"Y": changed}, `tensor "Y" element 1: want 0, got 5`},
		{"rank", map[string]*Tensor{"Y": y(2)}, map[string]*Tensor{"Y": y(2, 1)}, `tensor "Y" shape mismatch: [2] vs [2 1]`},
		{"extent", map[string]*Tensor{"Y": y(1, 2)}, map[string]*Tensor{"Y": y(2, 1)}, `tensor "Y" shape mismatch: [1 2] vs [2 1]`},
	}
	for _, r := range rows {
		err := CompareOutputs(r.want, r.got)
		if (err == nil) != (r.msg == "") || (err != nil && !strings.Contains(err.Error(), r.msg)) {
			t.Errorf("%s: CompareOutputs = %v, want %q", r.name, err, r.msg)
		}
	}
}

// TestSpecPanics: the programmer errors of the spec and tensor helpers
// panic instead of computing with a malformed shape.
func TestSpecPanics(t *testing.T) {
	rows := map[string]func(){
		"AM row length":      func() { AM(2, []int{1, 0}) },
		"unknown cond kind":  func() { Pred{{Kind: 99}}.Eval(ir.IterVec{0}, []int{1}) },
		"zero tensor extent": func() { NewTensor(2, 0) },
		"index rank":         func() { NewTensor(2, 2).At(ir.IterVec{0}) },
		"Prepare leaves a hole": func() {
			k := rowSum()
			k.Prepare = func([]int, int64) map[string]*Tensor { return map[string]*Tensor{} }
			k.DefaultInputs([]int{2, 2}, 1)
		},
	}
	for name, f := range rows {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
