package ir

import (
	"strings"
	"testing"
)

// buildChainDFG builds a 2-iteration DFG:
//
//	iter (0): load A -> mul -> add -> (feeds iter 1's add port 1)
//	iter (1): load A -> mul -> add
//
// mirroring a 1-D accumulation kernel.
func buildChainDFG(t *testing.T) *DFG {
	t.Helper()
	d := NewDFG([]int{2})
	var prevAdd int
	for i := 0; i < 2; i++ {
		iter := IterVec{i}
		ld := d.AddNode(&Node{Kind: OpLoad, Name: "ldA", BodyOp: 0, Iter: iter, Tensor: "A", Index: IterVec{i}})
		mul := d.AddNode(&Node{Kind: OpMul, Name: "mul", BodyOp: 1, Iter: iter, HasConst: true, Const: 3})
		add := d.AddNode(&Node{Kind: OpAdd, Name: "add", BodyOp: 2, Iter: iter})
		d.AddEdge(ld.ID, mul.ID, 0)
		d.AddEdge(mul.ID, add.ID, 0)
		if i == 0 {
			st := d.AddNode(&Node{Kind: OpLoad, Name: "init", BodyOp: -1, Iter: iter, Tensor: "S0", Index: IterVec{0}})
			d.AddEdge(st.ID, add.ID, 1)
		} else {
			d.AddEdge(prevAdd, add.ID, 1)
		}
		prevAdd = add.ID
	}
	return d
}

func TestDFGValidateOK(t *testing.T) {
	d := buildChainDFG(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := d.NumCompute(); got != 4 {
		t.Errorf("NumCompute = %d, want 4 (2 mul + 2 add)", got)
	}
}

func TestDFGTopoOrderRespectsEdges(t *testing.T) {
	d := buildChainDFG(t)
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(d.Nodes))
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range d.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violated by topo order", e.From, e.To)
		}
	}
}

// TestDFGValidateDetectsCycle: the cycle a -> b -> a closes through a
// backward edge (b -> a) whose source has an in-edge, so Validate's
// linear certificate must fall back to the topological sort; the loads'
// backward edges leave nodes without in-edges and would not.
func TestDFGValidateDetectsCycle(t *testing.T) {
	d := NewDFG([]int{1})
	a := d.AddNode(&Node{Kind: OpAdd, Iter: IterVec{0}})
	b := d.AddNode(&Node{Kind: OpAdd, Iter: IterVec{0}})
	d.AddEdge(a.ID, b.ID, 0)
	d.AddEdge(b.ID, a.ID, 0)
	// Fill remaining ports so the port checks pass and the cycle check is hit.
	c1 := d.AddNode(&Node{Kind: OpLoad, Iter: IterVec{0}, BodyOp: -1, Tensor: "X", Index: IterVec{0}})
	d.AddEdge(c1.ID, a.ID, 1)
	c2 := d.AddNode(&Node{Kind: OpLoad, Iter: IterVec{0}, BodyOp: -1, Tensor: "X", Index: IterVec{1}})
	d.AddEdge(c2.ID, b.ID, 1)
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestDFGValidateDetectsDoubleDrive(t *testing.T) {
	d := NewDFG([]int{1})
	l1 := d.AddNode(&Node{Kind: OpLoad, Iter: IterVec{0}, Tensor: "A", Index: IterVec{0}})
	l2 := d.AddNode(&Node{Kind: OpLoad, Iter: IterVec{0}, Tensor: "A", Index: IterVec{1}})
	r := d.AddNode(&Node{Kind: OpRoute, Iter: IterVec{0}})
	d.AddEdge(l1.ID, r.ID, 0)
	d.AddEdge(l2.ID, r.ID, 0)
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "driven twice") {
		t.Errorf("expected double-drive error, got %v", err)
	}
}

func TestDFGValidateDetectsUndrivenPort(t *testing.T) {
	d := NewDFG([]int{1})
	d.AddNode(&Node{Kind: OpAdd, Iter: IterVec{0}})
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "undriven") {
		t.Errorf("expected undriven error, got %v", err)
	}
}

func TestDFGValidateDetectsBadPort(t *testing.T) {
	d := NewDFG([]int{1})
	l := d.AddNode(&Node{Kind: OpLoad, Iter: IterVec{0}, Tensor: "A", Index: IterVec{0}})
	r := d.AddNode(&Node{Kind: OpRoute, Iter: IterVec{0}})
	d.AddEdge(l.ID, r.ID, 1) // route has arity 1: only port 0 valid
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("expected arity error, got %v", err)
	}
}

func TestOpKindProperties(t *testing.T) {
	if !OpAdd.IsCompute() || !OpMin.IsCompute() {
		t.Error("add/min should be compute")
	}
	if OpLoad.IsCompute() || OpRoute.IsCompute() || OpStore.IsCompute() {
		t.Error("load/route/store must not be compute")
	}
	if !OpLoad.IsMemory() || !OpStore.IsMemory() || OpAdd.IsMemory() {
		t.Error("IsMemory misclassification")
	}
	if OpRoute.Arity() != 1 || OpAdd.Arity() != 2 || OpLoad.Arity() != 0 {
		t.Error("Arity misclassification")
	}
}

func TestOpKindEval(t *testing.T) {
	cases := []struct {
		k    OpKind
		a, b int64
		want int64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, -1},
		{OpMul, 3, 4, 12},
		{OpDiv, 12, 4, 3},
		{OpDiv, 12, 0, 0},
		{OpMin, 3, 4, 3},
		{OpMax, 3, 4, 4},
		{OpAnd, 6, 3, 2},
		{OpOr, 6, 3, 7},
		{OpXor, 6, 3, 5},
		{OpShl, 3, 2, 12},
		{OpShr, 12, 2, 3},
		{OpSel, 0, 9, 9},
		{OpSel, 5, 9, 5},
	}
	for _, c := range cases {
		if got := c.k.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %d, want %d", c.k, c.a, c.b, got, c.want)
		}
	}
}

func TestOpKindStringAllNamed(t *testing.T) {
	for k := OpNop; k < opKindCount; k++ {
		if s := k.String(); strings.HasPrefix(s, "op(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}
