package kernel

import (
	"fmt"

	"himap/internal/ir"
)

// ExecuteDFG evaluates an unrolled DFG over concrete input tensors and
// returns the output tensors: the oracle BuildDFG is held to against
// Golden, and the forwarding transform against the DFG it rewrites
// (forwarding_test.go).
func ExecuteDFG(k *Kernel, d *ir.DFG, inputs map[string]*Tensor) (map[string]*Tensor, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	outputs := k.NewOutputs(d.Block)
	vals := make([]int64, len(d.Nodes))
	for _, id := range order {
		n := d.Nodes[id]
		var a, b int64
		gotA, gotB := false, false
		for _, ei := range d.InEdges(id) {
			e := d.Edges[ei]
			switch e.ToPort {
			case 0:
				a, gotA = vals[e.From], true
			case 1:
				b, gotB = vals[e.From], true
			}
		}
		if n.HasConst {
			b, gotB = n.Const, true
		}
		switch {
		case n.Kind == ir.OpLoad:
			t, ok := inputs[n.Tensor]
			if !ok {
				return nil, fmt.Errorf("kernel: ExecuteDFG missing input tensor %q", n.Tensor)
			}
			vals[id] = t.At(n.Index)
		case n.Kind == ir.OpStore:
			if !gotA {
				return nil, fmt.Errorf("kernel: store node %v has no input", n)
			}
			vals[id] = a
			out, ok := outputs[n.Tensor]
			if !ok {
				return nil, fmt.Errorf("kernel: ExecuteDFG missing output tensor %q", n.Tensor)
			}
			out.Set(n.Index, a)
		case n.Kind == ir.OpRoute:
			if !gotA {
				return nil, fmt.Errorf("kernel: route node %v has no input", n)
			}
			vals[id] = a
		case n.Kind.IsCompute():
			if !gotA || (n.Kind.Arity() > 1 && !gotB) {
				return nil, fmt.Errorf("kernel: compute node %v missing inputs (a:%v b:%v)", n, gotA, gotB)
			}
			vals[id] = n.Kind.Eval(a, b)
		default:
			return nil, fmt.Errorf("kernel: ExecuteDFG cannot evaluate %v", n)
		}
	}
	return outputs, nil
}
