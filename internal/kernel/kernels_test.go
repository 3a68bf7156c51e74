package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"himap/internal/ir"
)

func TestAllKernelsValidate(t *testing.T) {
	for _, k := range append(Evaluation(), Conv2D()) {
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestComputeOpCountsMatchPaper(t *testing.T) {
	// §VI quotes per-iteration compute op counts: ADI 5, BiCG 4, FW 2;
	// GEMM/SYRK/TTM are mul+acc pipelines (2); ATAX/MVT mirror BiCG (4).
	want := map[string]int{
		"ADI": 5, "ATAX": 4, "BICG": 4, "MVT": 4,
		"GEMM": 2, "SYRK": 2, "FW": 2, "TTM": 2,
	}
	for _, k := range Evaluation() {
		if got := k.NumComputeOps(); got != want[k.Name] {
			t.Errorf("%s: compute ops = %d, want %d", k.Name, got, want[k.Name])
		}
	}
}

func TestKernelDims(t *testing.T) {
	want := map[string]int{
		"ADI": 2, "ATAX": 2, "BICG": 2, "MVT": 2,
		"GEMM": 3, "SYRK": 3, "FW": 3, "TTM": 4,
	}
	for _, k := range Evaluation() {
		if k.Dim != want[k.Name] {
			t.Errorf("%s: Dim = %d, want %d", k.Name, k.Dim, want[k.Name])
		}
		if !k.HasInterIterationDeps() {
			t.Errorf("%s: expected inter-iteration dependencies", k.Name)
		}
	}
}

func TestDistanceVectorsLexPositive(t *testing.T) {
	for _, k := range append(Evaluation(), Conv2D()) {
		for _, d := range k.DistanceVectors() {
			if d.IsZero() || !d.LexNonNegative() {
				t.Errorf("%s: bad distance vector %v", k.Name, d)
			}
			if len(d) != k.Dim {
				t.Errorf("%s: distance vector %v has wrong dimensionality", k.Name, d)
			}
		}
	}
}

func TestGoldenMatchesReference(t *testing.T) {
	for _, k := range Evaluation() {
		for _, b := range []int{2, 3, 4, 5} {
			block := k.UniformBlock(b)
			inputs := k.DefaultInputs(block, 42)
			ref, err := Reference(k.Name, block, inputs)
			if err != nil {
				t.Fatalf("%s b=%d: reference: %v", k.Name, b, err)
			}
			got, err := k.Golden(block, inputs)
			if err != nil {
				t.Fatalf("%s b=%d: golden: %v", k.Name, b, err)
			}
			if err := CompareOutputs(ref, got); err != nil {
				t.Errorf("%s b=%d: %v", k.Name, b, err)
			}
		}
	}
}

func TestConv2DGoldenMatchesReference(t *testing.T) {
	k := Conv2D()
	block := k.UniformBlock(4) // (4,4,3,3)
	inputs := k.DefaultInputs(block, 7)
	ref, err := Reference(k.Name, block, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Golden(block, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareOutputs(ref, got); err != nil {
		t.Error(err)
	}
}

func TestExecuteDFGMatchesGolden(t *testing.T) {
	for _, k := range append(Evaluation(), Conv2D()) {
		block := k.UniformBlock(4)
		d, err := k.BuildDFG(block)
		if err != nil {
			t.Fatalf("%s: BuildDFG: %v", k.Name, err)
		}
		inputs := k.DefaultInputs(block, 99)
		want, err := k.Golden(block, inputs)
		if err != nil {
			t.Fatalf("%s: golden: %v", k.Name, err)
		}
		got, err := ExecuteDFG(k, d, inputs)
		if err != nil {
			t.Fatalf("%s: ExecuteDFG: %v", k.Name, err)
		}
		if err := CompareOutputs(want, got); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestDFGComputeCountScalesWithBlock(t *testing.T) {
	for _, k := range Evaluation() {
		for _, b := range []int{2, 4} {
			block := k.UniformBlock(b)
			d, err := k.BuildDFG(block)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			want := k.NumComputeOps() * ir.BoxSize(block)
			if got := d.NumCompute(); got != want {
				t.Errorf("%s b=%d: compute nodes = %d, want %d", k.Name, b, got, want)
			}
		}
	}
}

func TestGenericIDFGInteriorHasOnlyDepInputs(t *testing.T) {
	for _, k := range Evaluation() {
		f, err := k.GenericIDFG()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if f.NumCompute() != k.NumComputeOps() {
			t.Errorf("%s: IDFG compute = %d, want %d", k.Name, f.NumCompute(), k.NumComputeOps())
		}
		for _, p := range f.Inputs {
			if p.Dist.IsZero() {
				t.Errorf("%s: interior IDFG input with zero distance", k.Name)
			}
		}
	}
}

func TestBuildDFGErrorOnMissingGuard(t *testing.T) {
	// A dependence with no boundary guard must be rejected.
	k := &Kernel{
		Name: "bad", Dim: 1, MinBlock: 2,
		Tensors: []TensorSpec{{Name: "O", Out: true, Dims: func(b []int) []int { return []int{b[0]} }}},
		Body: []BodyOp{
			{Name: "acc", Kind: ir.OpAdd,
				A:      Fixed(Dep(0, 1)),
				B:      Fixed(Const(1)),
				Stores: []StoreRule{{When: Always(), Tensor: "O", Map: AM(1, []int{1, 0})}}},
		},
	}
	if _, err := k.BuildDFG([]int{4}); err == nil {
		t.Fatal("expected error for unguarded boundary dependence")
	}
}

func TestFixedBlockEnforced(t *testing.T) {
	k := Conv2D()
	if _, err := k.BuildDFG([]int{4, 4, 2, 3}); err == nil {
		t.Fatal("expected error for violated pinned block dimension")
	}
	if b := k.UniformBlock(5); b[2] != 3 || b[3] != 3 || b[0] != 5 {
		t.Errorf("UniformBlock with FixedBlock = %v", b)
	}
}

func TestDefaultInputsDeterministic(t *testing.T) {
	k := GEMM()
	block := k.UniformBlock(4)
	a := k.DefaultInputs(block, 5)
	b := k.DefaultInputs(block, 5)
	c := k.DefaultInputs(block, 6)
	if !a["A"].Equal(b["A"]) {
		t.Error("same seed must give same inputs")
	}
	if a["A"].Equal(c["A"]) {
		t.Error("different seeds should give different inputs")
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("GEMM")
	if err != nil || k.Name != "GEMM" {
		t.Errorf("ByName(GEMM) = %v, %v", k, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown kernel")
	}
}

// TestByNameCoversRegistry holds the name → constructor table to the two
// kernel lists: every listed kernel is found under its own name, each
// lookup builds a fresh instance (callers may change what they get), the
// table names nothing else, and an unknown name keeps its error text.
func TestByNameCoversRegistry(t *testing.T) {
	all := append(Evaluation(), Extensions()...)
	for _, want := range all {
		k1, err := ByName(want.Name)
		if err != nil {
			t.Errorf("ByName(%q): %v", want.Name, err)
			continue
		}
		k2, _ := ByName(want.Name)
		if k1.Name != want.Name || k1.Dim != want.Dim || len(k1.Body) != len(want.Body) {
			t.Errorf("ByName(%q) built %s (dim %d, %d ops)", want.Name, k1.Name, k1.Dim, len(k1.Body))
		}
		if k1 == k2 || k1 == want {
			t.Errorf("ByName(%q) returned a shared *Kernel", want.Name)
		}
	}
	if len(constructors) != len(all) {
		t.Errorf("%d constructors for %d listed kernels", len(constructors), len(all))
	}
	_, err := ByName("gemm")
	if err == nil || err.Error() != `kernel: unknown kernel "gemm"` {
		t.Errorf(`ByName("gemm") error = %v`, err)
	}
}

func TestCatalogCategorization(t *testing.T) {
	cat := Categorize(Catalog())
	if len(cat["no-dep"]) == 0 || len(cat["dep-dim1"]) == 0 ||
		len(cat["dep-dim2"]) == 0 || len(cat["dep-dim3"]) == 0 || len(cat["dep-dim4"]) == 0 {
		t.Fatalf("all five Table-I columns must be populated: %v", mapLens(cat))
	}
	// The eight Table-II kernels must all be in multi-dimensional
	// with-dependency categories.
	tableII := map[string]bool{"adi": true, "atax": true, "bicg": true, "mvt": true,
		"gemm": true, "syrk": true, "floyd_warshall": true, "ttm": true}
	found := 0
	for key, infos := range cat {
		for _, in := range infos {
			if tableII[in.Name] {
				found++
				if key == "no-dep" || key == "dep-dim1" {
					t.Errorf("%s categorized as %s", in.Name, key)
				}
			}
		}
	}
	if found != len(tableII) {
		t.Errorf("found %d of %d Table-II kernels in catalog", found, len(tableII))
	}
}

func mapLens(m map[string][]Info) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = len(v)
	}
	return out
}

func TestTensorBasics(t *testing.T) {
	tt := NewTensor(2, 3)
	tt.Set(ir.IterVec{1, 2}, 42)
	if got := tt.At(ir.IterVec{1, 2}); got != 42 {
		t.Errorf("At = %d", got)
	}
	if len(tt.Data) != 6 {
		t.Errorf("%d elements, want 6", len(tt.Data))
	}
	c := tt.Clone()
	c.Set(ir.IterVec{0, 0}, 1)
	if tt.At(ir.IterVec{0, 0}) == 1 {
		t.Error("Clone must not alias")
	}
	if !tt.Equal(tt.Clone()) {
		t.Error("Equal on clone")
	}
	if tt.Equal(NewTensor(3, 2)) {
		t.Error("Equal across shapes")
	}
}

func TestTensorOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTensor(2, 2).At(ir.IterVec{2, 0})
}

func TestAffineMap(t *testing.T) {
	m := AM(3, []int{1, 0, 0, 0}, []int{0, 0, 1, 5})
	got := m.Apply(ir.IterVec{2, 9, 3})
	if !got.Equal(ir.IterVec{2, 8}) {
		t.Errorf("Apply = %v, want (2,8)", got)
	}
	if len(m.Coef) != 2 {
		t.Errorf("%d index rows, want 2", len(m.Coef))
	}
}

func TestPredEval(t *testing.T) {
	block := []int{4, 4}
	cases := []struct {
		p    Pred
		iter ir.IterVec
		want bool
	}{
		{Always(), ir.IterVec{1, 2}, true},
		{First(0), ir.IterVec{0, 3}, true},
		{First(0), ir.IterVec{1, 3}, false},
		{Last(1), ir.IterVec{0, 3}, true},
		{Last(1), ir.IterVec{0, 2}, false},
		{Pred{{Kind: CondNotFirst, Dim: 0}}, ir.IterVec{1, 0}, true},
		{EqDims(0, 1), ir.IterVec{2, 2}, true},
		{EqDims(0, 1), ir.IterVec{2, 1}, false},
		{Pred{{Kind: CondNotLast, Dim: 1}}, ir.IterVec{0, 2}, true},
		{Pred{{Kind: CondNotLast, Dim: 1}}, ir.IterVec{0, 3}, false},
		{Pred{{Kind: CondNeDims, Dim: 0, Dim2: 1}}, ir.IterVec{2, 1}, true},
		{Pred{{Kind: CondNeDims, Dim: 0, Dim2: 1}}, ir.IterVec{2, 2}, false},
		{And(First(0), Last(1)), ir.IterVec{0, 3}, true},
		{And(First(0), Last(1)), ir.IterVec{0, 0}, false},
	}
	for i, c := range cases {
		if got := c.p.Eval(c.iter, block); got != c.want {
			t.Errorf("case %d: Eval(%v) = %v, want %v", i, c.iter, got, c.want)
		}
	}
}

// TestInputsHaveDeclaredDims: every input tensor DefaultInputs makes —
// by a kernel's Prepare hook or by default — has the extents its
// TensorSpec declares, on a non-uniform block.
func TestInputsHaveDeclaredDims(t *testing.T) {
	for _, k := range append(Evaluation(), Extensions()...) {
		block := k.UniformBlock(k.MinBlock)
		for d := range block {
			if d >= len(k.FixedBlock) || k.FixedBlock[d] == 0 {
				block[d] += d
			}
		}
		in := k.DefaultInputs(block, 1)
		for _, ts := range k.Tensors {
			if ts.Out {
				continue
			}
			if want := ts.Dims(block); !slices.Equal(in[ts.Name].Dims, want) {
				t.Errorf("%s block %v: input %s has dims %v, declared %v", k.Name, block, ts.Name, in[ts.Name].Dims, want)
			}
		}
	}
}

func TestFWPrepareConsistency(t *testing.T) {
	// PR[k][j] must equal the (k-1)-step distance matrix's pivot row, and
	// the spec's golden output must match a plain Floyd-Warshall when the
	// block is square.
	k := FW()
	block := []int{5, 5, 5}
	inputs := k.DefaultInputs(block, 11)
	got, err := k.Golden(block, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Plain Jacobi Floyd-Warshall on D0.
	d := inputs["D0"].Clone()
	for kk := 0; kk < 5; kk++ {
		next := NewTensor(5, 5)
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				via := d.At(ir.IterVec{i, kk}) + d.At(ir.IterVec{kk, j})
				cur := d.At(ir.IterVec{i, j})
				if via < cur {
					cur = via
				}
				next.Set(ir.IterVec{i, j}, cur)
			}
		}
		d = next
	}
	if !got["D"].Equal(d) {
		t.Error("FW golden does not match plain Floyd-Warshall")
	}
}

// Property: golden, reference, and DFG execution agree on random
// rectangular (non-uniform) blocks for every kernel.
func TestRectangularBlocksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range Evaluation() {
		for trial := 0; trial < 4; trial++ {
			block := make([]int, k.Dim)
			for d := range block {
				block[d] = 2 + rng.Intn(4)
				if d < len(k.FixedBlock) && k.FixedBlock[d] > 0 {
					block[d] = k.FixedBlock[d]
				}
			}
			inputs := k.DefaultInputs(block, int64(trial))
			want, err := Reference(k.Name, block, inputs)
			if err != nil {
				t.Fatalf("%s %v: %v", k.Name, block, err)
			}
			got, err := k.Golden(block, inputs)
			if err != nil {
				t.Fatalf("%s %v: %v", k.Name, block, err)
			}
			if err := CompareOutputs(want, got); err != nil {
				t.Errorf("%s %v golden: %v", k.Name, block, err)
			}
			d, err := k.BuildDFG(block)
			if err != nil {
				t.Fatalf("%s %v: %v", k.Name, block, err)
			}
			dout, err := ExecuteDFG(k, d, inputs)
			if err != nil {
				t.Fatalf("%s %v: %v", k.Name, block, err)
			}
			if err := CompareOutputs(want, dout); err != nil {
				t.Errorf("%s %v dfg: %v", k.Name, block, err)
			}
		}
	}
}

func TestAtIndexAndBeforePredicates(t *testing.T) {
	block := []int{5, 5}
	atIndex := Pred{{Kind: CondIndexEq, Dim: 0, Val: 3}}
	before := Pred{{Kind: CondIndexLt, Dim: 1, Val: 2}}
	if !atIndex.Eval(ir.IterVec{3, 1}, block) {
		t.Error("i == 3 at i=3 should hold")
	}
	if atIndex.Eval(ir.IterVec{2, 1}, block) {
		t.Error("i == 3 at i=2 should not hold")
	}
	if !before.Eval(ir.IterVec{0, 1}, block) {
		t.Error("j < 2 at j=1 should hold")
	}
	if before.Eval(ir.IterVec{0, 2}, block) {
		t.Error("j < 2 at j=2 should not hold")
	}
}

// Property: DFG load/store node counts follow the boundary structure —
// for GEMM, loads of A appear only at j==0 (b1×b3 of them), B at i==0,
// and stores at k==last (b1×b2).
func TestGEMMBoundaryAccessCounts(t *testing.T) {
	k := GEMM()
	block := []int{3, 4, 5}
	d, err := k.BuildDFG(block)
	if err != nil {
		t.Fatal(err)
	}
	loadsA, loadsB, stores := 0, 0, 0
	for _, n := range d.Nodes {
		switch {
		case n.Kind == ir.OpLoad && n.Tensor == "A":
			loadsA++
			if n.Iter[1] != 0 {
				t.Errorf("A load at %v, want j==0", n.Iter)
			}
		case n.Kind == ir.OpLoad && n.Tensor == "B":
			loadsB++
			if n.Iter[0] != 0 {
				t.Errorf("B load at %v, want i==0", n.Iter)
			}
		case n.Kind == ir.OpStore:
			stores++
			if n.Iter[2] != block[2]-1 {
				t.Errorf("store at %v, want k==last", n.Iter)
			}
		}
	}
	if loadsA != 3*5 || loadsB != 4*5 || stores != 3*4 {
		t.Errorf("loadsA=%d loadsB=%d stores=%d, want 15/20/12", loadsA, loadsB, stores)
	}
}

// BenchmarkBuildISDG is the isdg-build stage of one cold GEMM 64x64
// compile: the unroll of its 64x64x4 block and the clustering built from
// what the unroll records. It is the stage's one-command profile:
//
//	go test -run '^$' -bench BuildISDG -benchtime 20x -cpuprofile cpu.out ./internal/kernel
func BenchmarkBuildISDG(b *testing.B) {
	k, block := GEMM(), []int{64, 64, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := k.BuildISDG(block); err != nil {
			b.Fatal(err)
		}
	}
}
