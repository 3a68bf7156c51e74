// Package kernel defines the loop-kernel specification DSL used as HiMap's
// front end, the benchmark kernels of the paper's evaluation (Table II),
// the Table-I categorization catalog, DFG/ISDG construction by full block
// unrolling, and a golden (reference) executor used for functional
// validation of generated CGRA mappings.
//
// The paper's front end analyzes LLVM bitcode of a C kernel; this package
// substitutes a declarative specification carrying exactly the information
// HiMap extracts from the bitcode: the loop-body operations, their operand
// sources (intra-iteration values, inter-iteration dependences with
// distance vectors, memory accesses with affine index maps, constants),
// and the store rules. See DESIGN.md, "Substitutions".
package kernel

import (
	"fmt"

	"himap/internal/diag"
	"himap/internal/ir"
)

// AffineMap maps an iteration vector to a tensor element index. Each row r
// computes index[r] = sum_d Coef[r][d]*iter[d] + Off[r].
type AffineMap struct {
	Coef [][]int
	Off  []int
}

// AM builds an AffineMap from rows; each row is the per-dimension
// coefficients followed by the constant offset (length dim+1).
func AM(dim int, rows ...[]int) AffineMap {
	m := AffineMap{}
	for _, r := range rows {
		if len(r) != dim+1 {
			panic(fmt.Sprintf("kernel: AM row length %d, want dim+1 = %d", len(r), dim+1))
		}
		m.Coef = append(m.Coef, r[:dim])
		m.Off = append(m.Off, r[dim])
	}
	return m
}

// Apply evaluates the map at an iteration point.
func (m AffineMap) Apply(iter ir.IterVec) ir.IterVec {
	out := make(ir.IterVec, len(m.Coef))
	for r := range m.Coef {
		s := m.Off[r]
		for d, c := range m.Coef[r] {
			s += c * iter[d]
		}
		out[r] = s
	}
	return out
}

// CondKind enumerates the guard conditions of operand selection.
type CondKind uint8

const (
	// CondFirst holds when iter[Dim] == 0.
	CondFirst CondKind = iota
	// CondLast holds when iter[Dim] == block[Dim]-1.
	CondLast
	// CondNotFirst holds when iter[Dim] > 0.
	CondNotFirst
	// CondNotLast holds when iter[Dim] < block[Dim]-1.
	CondNotLast
	// CondEqDims holds when iter[Dim] == iter[Dim2].
	CondEqDims
	// CondNeDims holds when iter[Dim] != iter[Dim2].
	CondNeDims
	// CondIndexEq holds when iter[Dim] == Val.
	CondIndexEq
	// CondIndexLt holds when iter[Dim] < Val.
	CondIndexLt
)

// Cond is a single linear condition on the iteration vector.
type Cond struct {
	Kind CondKind
	Dim  int
	Dim2 int
	Val  int
}

// Pred is a conjunction of conditions; the empty Pred is always true.
type Pred []Cond

// Eval reports whether the predicate holds at iter within the block.
func (p Pred) Eval(iter ir.IterVec, block []int) bool {
	for _, c := range p {
		var ok bool
		switch c.Kind {
		case CondFirst:
			ok = iter[c.Dim] == 0
		case CondLast:
			ok = iter[c.Dim] == block[c.Dim]-1
		case CondNotFirst:
			ok = iter[c.Dim] > 0
		case CondNotLast:
			ok = iter[c.Dim] < block[c.Dim]-1
		case CondEqDims:
			ok = iter[c.Dim] == iter[c.Dim2]
		case CondNeDims:
			ok = iter[c.Dim] != iter[c.Dim2]
		case CondIndexEq:
			ok = iter[c.Dim] == c.Val
		case CondIndexLt:
			ok = iter[c.Dim] < c.Val
		default:
			panic(fmt.Sprintf("kernel: unknown cond kind %d", c.Kind))
		}
		if !ok {
			return false
		}
	}
	return true
}

// Predicate helpers.
func Always() Pred           { return nil }
func First(dim int) Pred     { return Pred{{Kind: CondFirst, Dim: dim}} }
func Last(dim int) Pred      { return Pred{{Kind: CondLast, Dim: dim}} }
func EqDims(d1, d2 int) Pred { return Pred{{Kind: CondEqDims, Dim: d1, Dim2: d2}} }
func And(ps ...Pred) Pred {
	var out Pred
	for _, p := range ps {
		out = append(out, p...)
	}
	return out
}

// SourceKind enumerates where an operand value comes from.
type SourceKind uint8

const (
	// SrcDep reads the result of body op Op executed at iteration
	// iter - Dist. Dist must be lexicographically non-negative; a zero
	// Dist is an intra-iteration edge and requires Op to precede the
	// consumer in body order.
	SrcDep SourceKind = iota
	// SrcMem loads Tensor[Map(iter)] through the PE data-memory port.
	SrcMem
	// SrcConst is an immediate.
	SrcConst
)

// Source describes one operand origin.
type Source struct {
	Kind   SourceKind
	Op     int
	Dist   ir.IterVec
	Tensor string
	Map    AffineMap
	Value  int64
}

// Source helpers.
func Dep(op int, dist ...int) Source {
	return Source{Kind: SrcDep, Op: op, Dist: ir.IterVec(dist)}
}
func Same(op int) Source { return Source{Kind: SrcDep, Op: op} } // intra-iteration
func Mem(tensor string, m AffineMap) Source {
	return Source{Kind: SrcMem, Tensor: tensor, Map: m}
}
func Const(v int64) Source { return Source{Kind: SrcConst, Value: v} }

// Case pairs a guard with a source; the first matching case of an Input
// is used at each iteration point.
type Case struct {
	When Pred
	Src  Source
}

// Input is a guarded operand selection list.
type Input []Case

// In builds an Input from cases.
func In(cases ...Case) Input { return Input(cases) }

// Fixed builds an unguarded single-source Input.
func Fixed(s Source) Input { return Input{{When: Always(), Src: s}} }

// StoreRule writes the owning op's result to Tensor[Map(iter)] whenever
// the guard holds.
type StoreRule struct {
	When   Pred
	Tensor string
	Map    AffineMap
}

// BodyOp is one operation of the loop body.
type BodyOp struct {
	Name   string
	Kind   ir.OpKind // a compute kind or ir.OpRoute
	A, B   Input     // B empty for arity-1 kinds
	Stores []StoreRule
}

// TensorSpec declares a kernel tensor and how its extents derive from the
// block sizes.
type TensorSpec struct {
	Name string
	Out  bool // true for result tensors, false for inputs
	Dims func(block []int) []int
}

// Kernel is a complete loop-kernel specification.
type Kernel struct {
	Name    string
	Desc    string
	Suite   string // originating benchmark suite, for Table I
	Dim     int    // number of tiled loop levels
	Body    []BodyOp
	Tensors []TensorSpec

	// MinBlock is the smallest per-dimension block size for which the
	// kernel is well formed (most kernels: 2).
	MinBlock int

	// FixedBlock pins individual block dimensions (0 = free). Kernels
	// with an intrinsic extent — e.g. a convolution window — use it.
	FixedBlock []int

	// Prepare optionally overrides random input generation; kernels whose
	// memory feeds depend on the computation itself (Floyd-Warshall's
	// pivot feeds) use it. It must fill every non-Out tensor.
	Prepare func(block []int, seed int64) map[string]*Tensor
}

// NumComputeOps returns the number of FU-occupying body operations — the
// per-iteration compute count quoted in §VI (e.g. 4 for BiCG, 5 for ADI).
func (k *Kernel) NumComputeOps() int {
	n := 0
	for _, op := range k.Body {
		if op.Kind.IsCompute() {
			n++
		}
	}
	return n
}

// DistanceVectors returns the distinct non-zero dependence distance
// vectors appearing in the body's operand sources, in body order. These
// are the inter-iteration dependencies that drive the systolic mapping.
func (k *Kernel) DistanceVectors() []ir.IterVec {
	seen := map[string]bool{}
	var out []ir.IterVec
	add := func(in Input) {
		for _, c := range in {
			if c.Src.Kind == SrcDep && len(c.Src.Dist) > 0 && !c.Src.Dist.IsZero() {
				if !seen[c.Src.Dist.Key()] {
					seen[c.Src.Dist.Key()] = true
					out = append(out, c.Src.Dist.Clone())
				}
			}
		}
	}
	for _, op := range k.Body {
		add(op.A)
		add(op.B)
	}
	return out
}

// HasInterIterationDeps reports whether any operand crosses iterations.
func (k *Kernel) HasInterIterationDeps() bool { return len(k.DistanceVectors()) > 0 }

// UniformBlock returns a block vector with every free dimension set to b
// (dimensions pinned by FixedBlock keep their pinned extent).
func (k *Kernel) UniformBlock(b int) []int {
	blk := make([]int, k.Dim)
	for i := range blk {
		blk[i] = b
		if i < len(k.FixedBlock) && k.FixedBlock[i] > 0 {
			blk[i] = k.FixedBlock[i]
		}
	}
	return blk
}

// Validate performs static checks on the specification: operand arity,
// body-order for intra-iteration sources, lexicographic positivity of
// dependence distances, tensor references, and affine-map ranks.
func (k *Kernel) Validate() error {
	if k.Dim < 1 {
		return fmt.Errorf("kernel %s: Dim = %d", k.Name, k.Dim)
	}
	minBlock := k.MinBlock
	if minBlock == 0 {
		minBlock = 1
	}
	for d, fb := range k.FixedBlock {
		if fb > 0 && fb < minBlock {
			return fmt.Errorf("kernel %s: %w: FixedBlock[%d] = %d below MinBlock %d",
				k.Name, diag.ErrBlockPinConflict, d, fb, minBlock)
		}
	}
	tensors := map[string]TensorSpec{}
	for _, ts := range k.Tensors {
		tensors[ts.Name] = ts
	}
	checkSrc := func(opIdx int, s Source) error {
		switch s.Kind {
		case SrcDep:
			if s.Op < 0 || s.Op >= len(k.Body) {
				return fmt.Errorf("op %d references body op %d out of range", opIdx, s.Op)
			}
			if len(s.Dist) == 0 || s.Dist.IsZero() {
				if s.Op >= opIdx {
					return fmt.Errorf("op %d intra-iteration source %d does not precede it", opIdx, s.Op)
				}
			} else {
				if len(s.Dist) != k.Dim {
					return fmt.Errorf("op %d dep distance %v has wrong dimensionality", opIdx, s.Dist)
				}
				if !s.Dist.LexNonNegative() {
					return fmt.Errorf("op %d dep distance %v is lexicographically negative", opIdx, s.Dist)
				}
			}
		case SrcMem:
			ts, ok := tensors[s.Tensor]
			if !ok {
				return fmt.Errorf("op %d loads undeclared tensor %q", opIdx, s.Tensor)
			}
			if ts.Out {
				return fmt.Errorf("op %d loads output tensor %q", opIdx, s.Tensor)
			}
			for _, row := range s.Map.Coef {
				if len(row) != k.Dim {
					return fmt.Errorf("op %d tensor %q affine row has %d coefs, want %d", opIdx, s.Tensor, len(row), k.Dim)
				}
			}
		case SrcConst:
			// always fine
		default:
			return fmt.Errorf("op %d has unknown source kind %d", opIdx, s.Kind)
		}
		return nil
	}
	for i, op := range k.Body {
		ar := op.Kind.Arity()
		if ar >= 1 && len(op.A) == 0 {
			return fmt.Errorf("kernel %s: op %d (%s) missing input A", k.Name, i, op.Name)
		}
		if ar >= 2 && len(op.B) == 0 {
			return fmt.Errorf("kernel %s: op %d (%s) missing input B", k.Name, i, op.Name)
		}
		if ar < 2 && len(op.B) != 0 {
			return fmt.Errorf("kernel %s: op %d (%s) has input B but arity %d", k.Name, i, op.Name, ar)
		}
		for _, c := range op.A {
			if err := checkSrc(i, c.Src); err != nil {
				return fmt.Errorf("kernel %s: %v", k.Name, err)
			}
		}
		for _, c := range op.B {
			if err := checkSrc(i, c.Src); err != nil {
				return fmt.Errorf("kernel %s: %v", k.Name, err)
			}
		}
		for _, st := range op.Stores {
			ts, ok := tensors[st.Tensor]
			if !ok {
				return fmt.Errorf("kernel %s: op %d stores to undeclared tensor %q", k.Name, i, st.Tensor)
			}
			if !ts.Out {
				return fmt.Errorf("kernel %s: op %d stores to input tensor %q", k.Name, i, st.Tensor)
			}
		}
	}
	return nil
}
