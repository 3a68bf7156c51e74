package kernel

import (
	"fmt"

	"himap/internal/ir"
)

// The eight multi-dimensional evaluation kernels of Table II, expressed as
// uniform-recurrence specifications. Dimension 0 is the outermost loop
// level. Route ops realize the systolic data propagation (operand reuse
// across iterations); they occupy routing resources, not FUs, so the
// per-iteration compute counts match §VI (BiCG 4, ADI 5, GEMM/SYRK/FW 2).

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// GEMM returns the General Matrix Multiply kernel (3 loop levels):
// C[i][j] = sum_k A[i][k]*B[k][j]. A values flow along j,
// B values along i, partial sums along k — the TPU-style systolic dataflow
// the paper cites in §III.
func GEMM() *Kernel {
	k := &Kernel{
		Name:     "GEMM",
		Desc:     "General Matrix Multiply",
		Suite:    "PolyBench",
		Dim:      3,
		MinBlock: 2,
		Tensors: []TensorSpec{
			{Name: "A", Dims: func(b []int) []int { return []int{b[0], b[2]} }},
			{Name: "B", Dims: func(b []int) []int { return []int{b[2], b[1]} }},
			{Name: "C", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		},
	}
	aMap := AM(3, []int{1, 0, 0, 0}, []int{0, 0, 1, 0}) // [i,k]
	bMap := AM(3, []int{0, 0, 1, 0}, []int{0, 1, 0, 0}) // [k,j]
	cMap := AM(3, []int{1, 0, 0, 0}, []int{0, 1, 0, 0}) // [i,j]
	k.Body = []BodyOp{
		{Name: "a", Kind: ir.OpRoute,
			A: In(Case{First(1), Mem("A", aMap)}, Case{Always(), Dep(0, 0, 1, 0)})},
		{Name: "b", Kind: ir.OpRoute,
			A: In(Case{First(0), Mem("B", bMap)}, Case{Always(), Dep(1, 1, 0, 0)})},
		{Name: "mul", Kind: ir.OpMul, A: Fixed(Same(0)), B: Fixed(Same(1))},
		{Name: "acc", Kind: ir.OpAdd, A: Fixed(Same(2)),
			B:      In(Case{First(2), Const(0)}, Case{Always(), Dep(3, 0, 0, 1)}),
			Stores: []StoreRule{{When: Last(2), Tensor: "C", Map: cMap}}},
	}
	return k
}

// SYRK returns the symmetric rank-k update kernel (3 loop levels):
// C[i][j] = sum_k A[i][k]*A[j][k].
func SYRK() *Kernel {
	k := &Kernel{
		Name:     "SYRK",
		Desc:     "Symmetric rank-k operation",
		Suite:    "PolyBench",
		Dim:      3,
		MinBlock: 2,
		Tensors: []TensorSpec{
			{Name: "A", Dims: func(b []int) []int { return []int{maxInt(b[0], b[1]), b[2]} }},
			{Name: "C", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		},
	}
	aiMap := AM(3, []int{1, 0, 0, 0}, []int{0, 0, 1, 0}) // [i,k]
	ajMap := AM(3, []int{0, 1, 0, 0}, []int{0, 0, 1, 0}) // [j,k]
	cMap := AM(3, []int{1, 0, 0, 0}, []int{0, 1, 0, 0})  // [i,j]
	k.Body = []BodyOp{
		{Name: "ai", Kind: ir.OpRoute,
			A: In(Case{First(1), Mem("A", aiMap)}, Case{Always(), Dep(0, 0, 1, 0)})},
		{Name: "aj", Kind: ir.OpRoute,
			A: In(Case{First(0), Mem("A", ajMap)}, Case{Always(), Dep(1, 1, 0, 0)})},
		{Name: "mul", Kind: ir.OpMul, A: Fixed(Same(0)), B: Fixed(Same(1))},
		{Name: "acc", Kind: ir.OpAdd, A: Fixed(Same(2)),
			B:      In(Case{First(2), Const(0)}, Case{Always(), Dep(3, 0, 0, 1)}),
			Stores: []StoreRule{{When: Last(2), Tensor: "C", Map: cMap}}},
	}
	return k
}

// BICG returns the BiCG sub-kernel of the BiCGStab linear solver
// (2 loop levels): s[j] += r[i]*A[i][j]; q[i] += A[i][j]*p[j].
func BICG() *Kernel {
	k := &Kernel{
		Name:     "BICG",
		Desc:     "BiCG Sub Kernel of BiCGStab Linear Solver",
		Suite:    "PolyBench",
		Dim:      2,
		MinBlock: 2,
		Tensors: []TensorSpec{
			{Name: "A", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "R", Dims: func(b []int) []int { return []int{b[0]} }},
			{Name: "P", Dims: func(b []int) []int { return []int{b[1]} }},
			{Name: "S", Out: true, Dims: func(b []int) []int { return []int{b[1]} }},
			{Name: "Q", Out: true, Dims: func(b []int) []int { return []int{b[0]} }},
		},
	}
	aMap := AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	k.Body = []BodyOp{
		{Name: "r", Kind: ir.OpRoute,
			A: In(Case{First(1), Mem("R", AM(2, []int{1, 0, 0}))}, Case{Always(), Dep(0, 0, 1)})},
		{Name: "p", Kind: ir.OpRoute,
			A: In(Case{First(0), Mem("P", AM(2, []int{0, 1, 0}))}, Case{Always(), Dep(1, 1, 0)})},
		{Name: "m1", Kind: ir.OpMul, A: Fixed(Mem("A", aMap)), B: Fixed(Same(0))},
		{Name: "s", Kind: ir.OpAdd, A: Fixed(Same(2)),
			B:      In(Case{First(0), Const(0)}, Case{Always(), Dep(3, 1, 0)}),
			Stores: []StoreRule{{When: Last(0), Tensor: "S", Map: AM(2, []int{0, 1, 0})}}},
		{Name: "m2", Kind: ir.OpMul, A: Fixed(Mem("A", aMap)), B: Fixed(Same(1))},
		{Name: "q", Kind: ir.OpAdd, A: Fixed(Same(4)),
			B:      In(Case{First(1), Const(0)}, Case{Always(), Dep(5, 0, 1)}),
			Stores: []StoreRule{{When: Last(1), Tensor: "Q", Map: AM(2, []int{1, 0, 0})}}},
	}
	return k
}

// ATAX returns the matrix-transpose–vector kernel (2 loop levels). The two
// GEMV passes of ATAX (t = A·x and y = Aᵀ·w) are fused into one loop nest;
// the mapping-relevant structure — four compute ops with dependence
// distances along both dimensions — matches the paper's characterization
// (Table II: Dim 2, 9 unique iterations). See EXPERIMENTS.md for the
// substitution note.
func ATAX() *Kernel {
	k := &Kernel{
		Name:     "ATAX",
		Desc:     "Matrix Transpose and Vector Multiplication",
		Suite:    "PolyBench",
		Dim:      2,
		MinBlock: 2,
		Tensors: []TensorSpec{
			{Name: "A", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "X", Dims: func(b []int) []int { return []int{b[1]} }},
			{Name: "W", Dims: func(b []int) []int { return []int{b[0]} }},
			{Name: "T", Out: true, Dims: func(b []int) []int { return []int{b[0]} }},
			{Name: "Y", Out: true, Dims: func(b []int) []int { return []int{b[1]} }},
		},
	}
	aMap := AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	k.Body = []BodyOp{
		{Name: "x", Kind: ir.OpRoute,
			A: In(Case{First(0), Mem("X", AM(2, []int{0, 1, 0}))}, Case{Always(), Dep(0, 1, 0)})},
		{Name: "w", Kind: ir.OpRoute,
			A: In(Case{First(1), Mem("W", AM(2, []int{1, 0, 0}))}, Case{Always(), Dep(1, 0, 1)})},
		{Name: "m1", Kind: ir.OpMul, A: Fixed(Mem("A", aMap)), B: Fixed(Same(0))},
		{Name: "t", Kind: ir.OpAdd, A: Fixed(Same(2)),
			B:      In(Case{First(1), Const(0)}, Case{Always(), Dep(3, 0, 1)}),
			Stores: []StoreRule{{When: Last(1), Tensor: "T", Map: AM(2, []int{1, 0, 0})}}},
		{Name: "m2", Kind: ir.OpMul, A: Fixed(Mem("A", aMap)), B: Fixed(Same(1))},
		{Name: "y", Kind: ir.OpAdd, A: Fixed(Same(4)),
			B:      In(Case{First(0), Const(0)}, Case{Always(), Dep(5, 1, 0)}),
			Stores: []StoreRule{{When: Last(0), Tensor: "Y", Map: AM(2, []int{0, 1, 0})}}},
	}
	return k
}

// MVT returns the matrix-vector product and transpose kernel
// (2 loop levels): x1[i] += A[i][j]*y1[j]; x2[i] += A[j][i]*y2[j].
func MVT() *Kernel {
	k := &Kernel{
		Name:     "MVT",
		Desc:     "Matrix Vector Product and Transpose",
		Suite:    "PolyBench",
		Dim:      2,
		MinBlock: 2,
		Tensors: []TensorSpec{
			{Name: "A", Dims: func(b []int) []int { m := maxInt(b[0], b[1]); return []int{m, m} }},
			{Name: "Y1", Dims: func(b []int) []int { return []int{b[1]} }},
			{Name: "Y2", Dims: func(b []int) []int { return []int{b[1]} }},
			{Name: "X1", Out: true, Dims: func(b []int) []int { return []int{b[0]} }},
			{Name: "X2", Out: true, Dims: func(b []int) []int { return []int{b[0]} }},
		},
	}
	aMap := AM(2, []int{1, 0, 0}, []int{0, 1, 0})  // [i,j]
	atMap := AM(2, []int{0, 1, 0}, []int{1, 0, 0}) // [j,i]
	k.Body = []BodyOp{
		{Name: "y1", Kind: ir.OpRoute,
			A: In(Case{First(0), Mem("Y1", AM(2, []int{0, 1, 0}))}, Case{Always(), Dep(0, 1, 0)})},
		{Name: "y2", Kind: ir.OpRoute,
			A: In(Case{First(0), Mem("Y2", AM(2, []int{0, 1, 0}))}, Case{Always(), Dep(1, 1, 0)})},
		{Name: "m1", Kind: ir.OpMul, A: Fixed(Mem("A", aMap)), B: Fixed(Same(0))},
		{Name: "x1", Kind: ir.OpAdd, A: Fixed(Same(2)),
			B:      In(Case{First(1), Const(0)}, Case{Always(), Dep(3, 0, 1)}),
			Stores: []StoreRule{{When: Last(1), Tensor: "X1", Map: AM(2, []int{1, 0, 0})}}},
		{Name: "m2", Kind: ir.OpMul, A: Fixed(Mem("A", atMap)), B: Fixed(Same(1))},
		{Name: "x2", Kind: ir.OpAdd, A: Fixed(Same(4)),
			B:      In(Case{First(1), Const(0)}, Case{Always(), Dep(5, 0, 1)}),
			Stores: []StoreRule{{When: Last(1), Tensor: "X2", Map: AM(2, []int{1, 0, 0})}}},
	}
	return k
}

// ADI returns a 2-D alternating-direction-implicit sweep (2 loop levels,
// 5 compute ops per iteration, dependences along the inner dimension only
// — Table II: 3 unique iterations):
//
//	u(i,j) = u(i,j-1)*ca + cb;  v(i,j) = v(i,j-1)*cc + u(i,j);
//	w(i,j) = u(i,j) + v(i,j)   (stored).
func ADI() *Kernel {
	k := &Kernel{
		Name:     "ADI",
		Desc:     "Alternating Direction Implicit solver sweep",
		Suite:    "PolyBench",
		Dim:      2,
		MinBlock: 2,
		Tensors: []TensorSpec{
			{Name: "U0", Dims: func(b []int) []int { return []int{b[0]} }},
			{Name: "V0", Dims: func(b []int) []int { return []int{b[0]} }},
			{Name: "CA", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "CB", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "CC", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "W", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		},
	}
	ij := AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	k.Body = []BodyOp{
		{Name: "m1", Kind: ir.OpMul,
			A: In(Case{First(1), Mem("U0", AM(2, []int{1, 0, 0}))}, Case{Always(), Dep(1, 0, 1)}),
			B: Fixed(Mem("CA", ij))},
		{Name: "u", Kind: ir.OpAdd, A: Fixed(Same(0)), B: Fixed(Mem("CB", ij))},
		{Name: "m2", Kind: ir.OpMul,
			A: In(Case{First(1), Mem("V0", AM(2, []int{1, 0, 0}))}, Case{Always(), Dep(3, 0, 1)}),
			B: Fixed(Mem("CC", ij))},
		{Name: "v", Kind: ir.OpAdd, A: Fixed(Same(2)), B: Fixed(Same(1))},
		{Name: "w", Kind: ir.OpAdd, A: Fixed(Same(1)), B: Fixed(Same(3)),
			Stores: []StoreRule{{When: Always(), Tensor: "W", Map: ij}}},
	}
	return k
}

// FW returns the Floyd-Warshall shortest-path kernel (3 loop levels,
// k outermost): d_k(i,j) = min(d_{k-1}(i,j), d_{k-1}(i,k)+d_{k-1}(k,j)).
// Pivot row values propagate along i through the fabric from the i==k
// diagonal downward; rows above the diagonal (and the i==0 boundary)
// receive the pivot through the per-PE memory feed (tensors PR/PC filled
// by Prepare from the reference computation) — the substitution for the
// bidirectional pivot broadcast discussed in DESIGN.md.
func FW() *Kernel {
	k := &Kernel{
		Name:     "FW",
		Desc:     "Shortest path and transitive closure (Floyd-Warshall)",
		Suite:    "PolyBench",
		Dim:      3,
		MinBlock: 2,
		Tensors: []TensorSpec{
			{Name: "D0", Dims: func(b []int) []int { return []int{b[1], b[2]} }},
			{Name: "PR", Dims: func(b []int) []int { return []int{b[0], b[2]} }},
			{Name: "PC", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "D", Out: true, Dims: func(b []int) []int { return []int{b[1], b[2]} }},
		},
	}
	dMap := AM(3, []int{0, 1, 0, 0}, []int{0, 0, 1, 0})  // [i,j]
	prMap := AM(3, []int{1, 0, 0, 0}, []int{0, 0, 1, 0}) // [k,j]
	pcMap := AM(3, []int{1, 0, 0, 0}, []int{0, 1, 0, 0}) // [k,i]
	k.Body = []BodyOp{
		{Name: "rv", Kind: ir.OpRoute,
			A: In(
				Case{First(1), Mem("PR", prMap)},
				Case{EqDims(1, 0), Dep(3, 1, 0, 0)},
				Case{Always(), Dep(0, 0, 1, 0)})},
		{Name: "cv", Kind: ir.OpRoute,
			A: In(
				Case{First(2), Mem("PC", pcMap)},
				Case{EqDims(2, 0), Dep(3, 1, 0, 0)},
				Case{Always(), Dep(1, 0, 0, 1)})},
		{Name: "sum", Kind: ir.OpAdd, A: Fixed(Same(0)), B: Fixed(Same(1))},
		{Name: "d", Kind: ir.OpMin,
			A:      In(Case{First(0), Mem("D0", dMap)}, Case{Always(), Dep(3, 1, 0, 0)}),
			B:      Fixed(Same(2)),
			Stores: []StoreRule{{When: Last(0), Tensor: "D", Map: dMap}}},
	}
	k.Prepare = prepareFW
	return k
}

// prepareFW fills D0 randomly and derives the pivot feeds PR/PC from the
// reference (Jacobi-style) Floyd-Warshall recurrence so that memory-fed
// boundary iterations observe exactly the values the fabric would carry.
func prepareFW(block []int, seed int64) map[string]*Tensor {
	bk, bi, bj := block[0], block[1], block[2]
	d0 := NewTensor(bi, bj)
	d0.fillLCG(seed ^ hashString("D0"))
	// Keep distances non-negative for a more natural shortest-path input.
	for i := range d0.Data {
		if d0.Data[i] < 0 {
			d0.Data[i] = -d0.Data[i]
		}
	}
	pr := NewTensor(bk, bj)
	pc := NewTensor(bk, bi)
	prev := d0.Clone()
	for kk := 0; kk < bk; kk++ {
		pivot := kk
		if pivot >= bi {
			pivot = bi - 1
		}
		for j := 0; j < bj; j++ {
			pr.Set(ir.IterVec{kk, j}, prev.At(ir.IterVec{pivot, j}))
		}
		pivotJ := kk
		if pivotJ >= bj {
			pivotJ = bj - 1
		}
		for i := 0; i < bi; i++ {
			pc.Set(ir.IterVec{kk, i}, prev.At(ir.IterVec{i, pivotJ}))
		}
		next := NewTensor(bi, bj)
		for i := 0; i < bi; i++ {
			for j := 0; j < bj; j++ {
				via := pr.At(ir.IterVec{kk, j}) + pc.At(ir.IterVec{kk, i})
				cur := prev.At(ir.IterVec{i, j})
				if via < cur {
					cur = via
				}
				next.Set(ir.IterVec{i, j}, cur)
			}
		}
		prev = next
	}
	return map[string]*Tensor{"D0": d0, "PR": pr, "PC": pc}
}

// TTM returns the tensor-times-matrix kernel of Tucker decomposition
// (4 loop levels): Y[i][j][k] = sum_l X[i][j][l]*U[k][l].
// X values are reused along k, U values along i, partial sums along l.
func TTM() *Kernel {
	k := &Kernel{
		Name:     "TTM",
		Desc:     "Tucker Decomposition (tensor-times-matrix)",
		Suite:    "PolyBench",
		Dim:      4,
		MinBlock: 2,
		Tensors: []TensorSpec{
			{Name: "X", Dims: func(b []int) []int { return []int{b[0], b[1], b[3]} }},
			{Name: "U", Dims: func(b []int) []int { return []int{b[2], b[3]} }},
			{Name: "Y", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1], b[2]} }},
		},
	}
	xMap := AM(4, []int{1, 0, 0, 0, 0}, []int{0, 1, 0, 0, 0}, []int{0, 0, 0, 1, 0}) // [i,j,l]
	uMap := AM(4, []int{0, 0, 1, 0, 0}, []int{0, 0, 0, 1, 0})                       // [k,l]
	yMap := AM(4, []int{1, 0, 0, 0, 0}, []int{0, 1, 0, 0, 0}, []int{0, 0, 1, 0, 0}) // [i,j,k]
	k.Body = []BodyOp{
		{Name: "x", Kind: ir.OpRoute,
			A: In(Case{First(2), Mem("X", xMap)}, Case{Always(), Dep(0, 0, 0, 1, 0)})},
		{Name: "u", Kind: ir.OpRoute,
			A: In(Case{First(0), Mem("U", uMap)}, Case{Always(), Dep(1, 1, 0, 0, 0)})},
		{Name: "mul", Kind: ir.OpMul, A: Fixed(Same(0)), B: Fixed(Same(1))},
		{Name: "acc", Kind: ir.OpAdd, A: Fixed(Same(2)),
			B:      In(Case{First(3), Const(0)}, Case{Always(), Dep(3, 0, 0, 0, 1)}),
			Stores: []StoreRule{{When: Last(3), Tensor: "Y", Map: yMap}}},
	}
	return k
}

// Conv2D returns a 2-D convolution with a 3x3 window as a 4-loop-level
// kernel (i, j over the output, r, s over the window) with the partial sum
// carried along the linearized window — an extension kernel exercised by
// the custom-kernel example. Block dims 2 and 3 are fixed at 3 (the
// window).
func Conv2D() *Kernel {
	k := &Kernel{
		Name:     "CONV2D",
		Desc:     "2-D convolution, 3x3 window",
		Suite:    "custom",
		Dim:      4,
		MinBlock: 2,
		Tensors: []TensorSpec{
			{Name: "IMG", Dims: func(b []int) []int { return []int{b[0] + 2, b[1] + 2} }},
			{Name: "KRN", Dims: func(b []int) []int { return []int{3, 3} }},
			{Name: "OUT", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		},
		FixedBlock: []int{0, 0, 3, 3},
	}
	imgMap := AM(4, []int{1, 0, 1, 0, 0}, []int{0, 1, 0, 1, 0}) // [i+r, j+s]
	krnMap := AM(4, []int{0, 0, 1, 0, 0}, []int{0, 0, 0, 1, 0}) // [r, s]
	outMap := AM(4, []int{1, 0, 0, 0, 0}, []int{0, 1, 0, 0, 0}) // [i, j]
	k.Body = []BodyOp{
		{Name: "mul", Kind: ir.OpMul, A: Fixed(Mem("IMG", imgMap)), B: Fixed(Mem("KRN", krnMap))},
		{Name: "acc", Kind: ir.OpAdd, A: Fixed(Same(0)),
			B: In(
				Case{And(First(2), First(3)), Const(0)},
				Case{First(3), Dep(1, 0, 0, 1, -2)}, // carry across window rows
				Case{Always(), Dep(1, 0, 0, 0, 1)}),
			Stores: []StoreRule{{When: And(Last(2), Last(3)), Tensor: "OUT", Map: outMap}}},
	}
	return k
}

// Evaluation returns the eight Table-II kernels in the paper's order.
func Evaluation() []*Kernel {
	return []*Kernel{ADI(), ATAX(), BICG(), MVT(), GEMM(), SYRK(), FW(), TTM()}
}

// constructors maps every kernel of Evaluation and Extensions to the
// function that builds it (TestByNameCoversRegistry keeps the three in
// step), so a lookup constructs the one kernel asked for.
var constructors = map[string]func() *Kernel{
	"ADI": ADI, "ATAX": ATAX, "BICG": BICG, "MVT": MVT,
	"GEMM": GEMM, "SYRK": SYRK, "FW": FW, "TTM": TTM,
	"CONV2D": Conv2D, "CONV3D": Conv3D, "NW": NW, "DOITGEN": DOITGEN,
	"DOTPROD": DOTPROD, "RELU": RELU,
}

// ByName returns a fresh instance of the named kernel (case-sensitive:
// the Table-II names plus the extension kernels), or an error.
func ByName(name string) (*Kernel, error) {
	if build, ok := constructors[name]; ok {
		return build(), nil
	}
	return nil, fmt.Errorf("kernel: unknown kernel %q", name)
}
