package kernel

import (
	"fmt"

	"himap/internal/ir"
)

// Golden executes the kernel specification directly (without building a
// DFG), iterating the block in lexicographic order, and returns the output
// tensors. It is the reference implementation used to validate both DFG
// construction and cycle-accurate simulation of generated mappings.
func (k *Kernel) Golden(block []int, inputs map[string]*Tensor) (map[string]*Tensor, error) {
	if len(block) != k.Dim {
		return nil, fmt.Errorf("kernel %s: block %v has %d dims, want %d", k.Name, block, len(block), k.Dim)
	}
	outputs := k.NewOutputs(block)
	npts := ir.BoxSize(block)
	vals := make([][]int64, len(k.Body))
	for i := range vals {
		vals[i] = make([]int64, npts)
	}

	var execErr error
	ir.ForEachPoint(block, func(iter ir.IterVec) {
		if execErr != nil {
			return
		}
		pi := ir.PointIndex(iter, block)
		for opIdx, op := range k.Body {
			read := func(in Input) int64 {
				ci, err := selectCase(in, iter, block)
				if err != nil {
					execErr = err
					return 0
				}
				src := &in[ci].Src
				switch src.Kind {
				case SrcDep:
					prodIter := iter
					if len(src.Dist) > 0 {
						prodIter = iter.Sub(src.Dist)
					}
					if !prodIter.InBox(block) {
						execErr = fmt.Errorf("kernel %s op %s at %v: golden dependence outside block", k.Name, op.Name, iter)
						return 0
					}
					return vals[src.Op][ir.PointIndex(prodIter, block)]
				case SrcMem:
					t, ok := inputs[src.Tensor]
					if !ok {
						execErr = fmt.Errorf("kernel %s: missing input tensor %q", k.Name, src.Tensor)
						return 0
					}
					return t.At(src.Map.Apply(iter))
				case SrcConst:
					return src.Value
				}
				execErr = fmt.Errorf("kernel %s: bad source kind", k.Name)
				return 0
			}

			var v int64
			switch {
			case op.Kind == ir.OpRoute:
				v = read(op.A)
			case op.Kind.IsCompute():
				a := read(op.A)
				b := read(op.B)
				if execErr != nil {
					return
				}
				v = op.Kind.Eval(a, b)
			default:
				execErr = fmt.Errorf("kernel %s: body op %s has non-body kind %v", k.Name, op.Name, op.Kind)
				return
			}
			if execErr != nil {
				return
			}
			vals[opIdx][pi] = v
			for _, st := range op.Stores {
				if st.When.Eval(iter, block) {
					outputs[st.Tensor].Set(st.Map.Apply(iter), v)
				}
			}
		}
	})
	if execErr != nil {
		return nil, execErr
	}
	return outputs, nil
}

// CompareOutputs reports the first mismatch between two output tensor
// maps, or nil if they agree exactly.
func CompareOutputs(want, got map[string]*Tensor) error {
	if len(want) != len(got) {
		return fmt.Errorf("kernel: output tensor count mismatch: want %d, got %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("kernel: missing output tensor %q", name)
		}
		if !w.Equal(g) {
			for i := range w.Data {
				if w.Data[i] != g.Data[i] {
					return fmt.Errorf("kernel: tensor %q element %d: want %d, got %d", name, i, w.Data[i], g.Data[i])
				}
			}
			return fmt.Errorf("kernel: tensor %q shape mismatch: %v vs %v", name, w.Dims, g.Dims)
		}
	}
	return nil
}
