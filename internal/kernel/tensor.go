package kernel

import (
	"fmt"

	"himap/internal/ir"
)

// Tensor is a dense multi-dimensional int64 array used by the golden
// executor and the simulator's memory feeds.
type Tensor struct {
	Dims []int
	Data []int64
}

// NewTensor allocates a zeroed tensor of the given extents.
func NewTensor(dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("kernel: tensor dimension %d", d))
		}
		n *= d
	}
	dd := make([]int, len(dims))
	copy(dd, dims)
	return &Tensor{Dims: dd, Data: make([]int64, n)}
}

func (t *Tensor) flat(idx ir.IterVec) int {
	if len(idx) != len(t.Dims) {
		panic(fmt.Sprintf("kernel: index rank %d vs tensor rank %d", len(idx), len(t.Dims)))
	}
	f := 0
	for d := range t.Dims {
		if idx[d] < 0 || idx[d] >= t.Dims[d] {
			panic(fmt.Sprintf("kernel: index %v out of tensor dims %v", idx, t.Dims))
		}
		f = f*t.Dims[d] + idx[d]
	}
	return f
}

// At returns the element at idx.
func (t *Tensor) At(idx ir.IterVec) int64 { return t.Data[t.flat(idx)] }

// Set stores v at idx.
func (t *Tensor) Set(idx ir.IterVec, v int64) { t.Data[t.flat(idx)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Dims...)
	copy(c.Data, t.Data)
	return c
}

// Equal reports whether two tensors have identical shape and contents.
func (t *Tensor) Equal(o *Tensor) bool {
	if len(t.Dims) != len(o.Dims) {
		return false
	}
	for i := range t.Dims {
		if t.Dims[i] != o.Dims[i] {
			return false
		}
	}
	for i := range t.Data {
		if t.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// fillLCG fills the tensor with small deterministic pseudo-random values
// derived from seed. Values are kept small so products and sums stay far
// from int64 overflow even for deep reductions.
func (t *Tensor) fillLCG(seed int64) {
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := range t.Data {
		x = x*6364136223846793005 + 1442695040888963407
		t.Data[i] = int64((x>>33)%17) - 8
	}
}

// hashString folds a string into an int64 seed component.
func hashString(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// DefaultInputs generates deterministic pseudo-random input tensors for
// the kernel at the given block sizes (output tensors are allocated
// zeroed). Kernels with a Prepare hook delegate to it.
func (k *Kernel) DefaultInputs(block []int, seed int64) map[string]*Tensor {
	if k.Prepare != nil {
		m := k.Prepare(block, seed)
		for _, ts := range k.Tensors {
			if _, ok := m[ts.Name]; !ok && !ts.Out {
				panic(fmt.Sprintf("kernel %s: Prepare did not fill tensor %q", k.Name, ts.Name))
			}
		}
		return m
	}
	m := make(map[string]*Tensor, len(k.Tensors))
	for _, ts := range k.Tensors {
		if ts.Out {
			continue
		}
		t := NewTensor(ts.Dims(block)...)
		t.fillLCG(seed ^ hashString(ts.Name))
		m[ts.Name] = t
	}
	return m
}

// NewOutputs allocates zeroed output tensors for the kernel at the given
// block sizes.
func (k *Kernel) NewOutputs(block []int) map[string]*Tensor {
	m := map[string]*Tensor{}
	for _, ts := range k.Tensors {
		if ts.Out {
			m[ts.Name] = NewTensor(ts.Dims(block)...)
		}
	}
	return m
}
