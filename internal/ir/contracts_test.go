package ir

import (
	"strings"
	"testing"
)

// TestIRContracts: the shape errors of the IR helpers panic or fail
// instead of computing with mismatched operands, and the degenerate
// inputs have their stated results.
func TestIRContracts(t *testing.T) {
	for name, f := range map[string]func(){
		"Sub of unequal lengths":   func() { IterVec{1}.Sub(IterVec{1, 2}) },
		"Dot of unequal lengths":   func() { IterVec{1}.Dot(IterVec{1, 2}) },
		"Eval of a load":           func() { OpLoad.Eval(1, 2) },
		"edge from a missing node": func() { NewDFG(nil).AddEdge(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	if (IterVec{1}).Equal(IterVec{1, 0}) {
		t.Error("vectors of different lengths are equal")
	}
	if s := OpKind(200).String(); s != "op(200)" {
		t.Errorf("OpKind(200).String() = %q", s)
	}
	calls := 0
	ForEachPoint(nil, func(IterVec) { calls++ })
	if calls != 0 {
		t.Errorf("the empty box has %d points, want 0", calls)
	}

	d := NewDFG(nil)
	a, b := d.AddNode(&Node{Kind: OpRoute}), d.AddNode(&Node{Kind: OpRoute})
	d.AddEdge(a.ID, b.ID, 0)
	if in := d.InEdges(b.ID); len(in) != 1 || d.Edges[in[0]].From != a.ID {
		t.Errorf("InEdges before any other adjacency query = %v, want the one edge", in)
	}
	d.Edges = append(d.Edges, Edge{From: 0, To: 7})
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "edge endpoint out of range") {
		t.Errorf("Validate of a hand-edited dangling edge = %v", err)
	}
}
