package himap

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/systolic"
)

// paperUtil holds §VI's HiMap utilization results; our implementation may
// match or exceed them (the substrate's routing fabric is modeled
// slightly more permissively), but must never fall below.
var paperUtil = map[string]float64{
	"ADI": 0.83, "ATAX": 1.0, "BICG": 0.66, "MVT": 1.0,
	"GEMM": 1.0, "SYRK": 1.0, "FW": 0.66, "TTM": 1.0,
}

func TestCompileAllKernelsMeetPaperUtilization(t *testing.T) {
	for _, size := range []int{4, 8} {
		for _, k := range kernel.Evaluation() {
			res, err := CompileRequest(context.Background(), k, arch.DefaultFabric(size, size), Options{})
			if err != nil {
				t.Errorf("%s %dx%d: %v", k.Name, size, size, err)
				continue
			}
			if res.Utilization < paperUtil[k.Name]-1e-9 {
				t.Errorf("%s %dx%d: U = %.1f%%, paper achieves %.0f%%",
					k.Name, size, size, res.Utilization*100, paperUtil[k.Name]*100)
			}
			if err := res.Config.Validate(); err != nil {
				t.Errorf("%s %dx%d: config: %v", k.Name, size, size, err)
			}
		}
	}
}

func TestCompileUniqueIterationCounts(t *testing.T) {
	// The hallmark scalability property: unique iteration counts match the
	// iteration-space structure and are independent of the CGRA size once
	// the block is large enough.
	want := map[string]int{
		"ADI": 3, "ATAX": 9, "BICG": 9, "MVT": 9,
		"GEMM": 27, "SYRK": 27, "TTM": 27,
	}
	for _, size := range []int{4, 8} {
		for _, k := range kernel.Evaluation() {
			if k.Name == "FW" {
				continue // diagonal classes; covered separately
			}
			res, err := CompileRequest(context.Background(), k, arch.DefaultFabric(size, size), Options{})
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			if res.UniqueIters != want[k.Name] {
				t.Errorf("%s %dx%d: unique iterations = %d, want %d",
					k.Name, size, size, res.UniqueIters, want[k.Name])
			}
		}
	}
}

func TestCompileIIBFormula(t *testing.T) {
	// II_B = II_S × t (Algorithm 1 line 6 / §V).
	for _, k := range kernel.Evaluation() {
		res, err := CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), Options{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if res.IIB != res.Sub.Depth*res.Mapping.IIS {
			t.Errorf("%s: II_B = %d, want depth %d × II_S %d",
				k.Name, res.IIB, res.Sub.Depth, res.Mapping.IIS)
		}
		if res.Config.II != res.IIB {
			t.Errorf("%s: config II %d != II_B %d", k.Name, res.Config.II, res.IIB)
		}
	}
}

func TestCompileConfigMemoryBound(t *testing.T) {
	// HiMap stores only unique instructions per PE; all mappings must fit
	// the 32-entry configuration memory (§V last paragraph).
	for _, k := range kernel.Evaluation() {
		res, err := CompileRequest(context.Background(), k, arch.DefaultFabric(8, 8), Options{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if got := res.Config.MaxUniqueInstrs(); got > res.Fabric.ConfigDepth {
			t.Errorf("%s: %d unique instructions exceed depth %d", k.Name, got, res.Fabric.ConfigDepth)
		}
	}
}

func TestCompileBlockMatchesVSA(t *testing.T) {
	// b1 = c/s1, b2 = c/s2 (Algorithm 1 line 6): the space dimensions of
	// the block must equal the VSA extents.
	res, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	vx := 8 / res.Sub.S1
	vy := 8 / res.Sub.S2
	sd := res.Scheme.SpaceDims
	if res.Block[sd[0]] != vx {
		t.Errorf("block[%d] = %d, want VSA x %d", sd[0], res.Block[sd[0]], vx)
	}
	if len(sd) > 1 && res.Block[sd[1]] != vy {
		t.Errorf("block[%d] = %d, want VSA y %d", sd[1], res.Block[sd[1]], vy)
	}
}

func TestCompileLinearArray(t *testing.T) {
	// The §II motivating configuration: a 2-D kernel on an 8x1 array uses
	// a 1-D space allocation with the other dimension sequenced in time.
	res, err := CompileRequest(context.Background(), kernel.BICG(), arch.DefaultFabric(8, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueIters != 9 {
		t.Errorf("unique iterations = %d, want 9 (paper §II)", res.UniqueIters)
	}
	if res.Mapping.IIS < 2 {
		t.Errorf("II_S = %d: the linear allocation must sequence one dimension in time", res.Mapping.IIS)
	}
}

func TestCompileNonSquareArray(t *testing.T) {
	res, err := CompileRequest(context.Background(), kernel.MVT(), arch.DefaultFabric(8, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.99 {
		t.Errorf("U = %.1f%% on 8x4", res.Utilization*100)
	}
}

func TestCompileInnerBlockOption(t *testing.T) {
	r4, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), Options{InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), Options{InnerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r8.IIB != 2*r4.IIB {
		t.Errorf("doubling the inner block must double II_B: %d vs %d", r4.IIB, r8.IIB)
	}
	if r4.Utilization != r8.Utilization {
		t.Errorf("inner block must not change utilization: %v vs %v", r4.Utilization, r8.Utilization)
	}
	// Unique iterations saturate: same count for both.
	if r4.UniqueIters != r8.UniqueIters {
		t.Errorf("unique iterations changed with inner block: %d vs %d", r4.UniqueIters, r8.UniqueIters)
	}
}

func TestCompileTooSmallArrayFails(t *testing.T) {
	// A 1x1 array leaves a VSA of 1x1: blocks fall below the minimum.
	if _, err := CompileRequest(context.Background(), kernel.BICG(), arch.DefaultFabric(1, 1), Options{}); err == nil {
		t.Error("expected failure on a 1x1 array")
	}
}

func TestCompileDeterministic(t *testing.T) {
	a, err := CompileRequest(context.Background(), kernel.SYRK(), arch.DefaultFabric(4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileRequest(context.Background(), kernel.SYRK(), arch.DefaultFabric(4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() {
		t.Errorf("non-deterministic compile: %q vs %q", a.Summary(), b.Summary())
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			for tt := 0; tt < a.IIB; tt++ {
				ia, ib := a.Config.Slots[r][c][tt], b.Config.Slots[r][c][tt]
				if ia.String() != ib.String() {
					t.Fatalf("PE(%d,%d) slot %d differs: %q vs %q", r, c, tt, ia.String(), ib.String())
				}
			}
		}
	}
}

func TestCompileForceScheme(t *testing.T) {
	sch := systolic.Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{2}, Skew: []int{1, 1}}
	res, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), Options{ForceScheme: &sch})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme.String() != sch.String() {
		t.Errorf("scheme = %v, want forced %v", res.Scheme, sch)
	}
}

func TestCompileFWDiagonalClasses(t *testing.T) {
	// FW's pivot-tap diagonals add classes beyond the 27 boundary classes;
	// the count must still be bounded and the mapping valid.
	res, err := CompileRequest(context.Background(), kernel.FW(), arch.DefaultFabric(4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueIters < 27 || res.UniqueIters > 120 {
		t.Errorf("FW unique iterations = %d, expected a bounded diagonal-class count", res.UniqueIters)
	}
}

func TestCompileStatsPopulated(t *testing.T) {
	res, err := CompileRequest(context.Background(), kernel.MVT(), arch.DefaultFabric(4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Total <= 0 || s.Attempts < 1 || s.CanonicalNets < 1 || s.RouteRounds < 1 {
		t.Errorf("stats not populated: %+v", s)
	}
	if !strings.Contains(res.Summary(), "MVT") {
		t.Errorf("summary %q", res.Summary())
	}
}

func TestCanonicalNetCountIndependentOfBlock(t *testing.T) {
	// The minimal-DFG property (§V): routing work depends on the number of
	// unique iterations, not the block size.
	small, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), Options{InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	big, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), Options{InnerBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.CanonicalNets != big.Stats.CanonicalNets {
		t.Errorf("canonical nets changed with block: %d vs %d",
			small.Stats.CanonicalNets, big.Stats.CanonicalNets)
	}
}

// synthetic kernel with a distance-2 dependence to exercise forwarding.
func multiHopKernel() *kernel.Kernel {
	k := &kernel.Kernel{
		Name: "HOP2", Desc: "synthetic distance-2 dependence", Suite: "custom",
		Dim: 2, MinBlock: 4,
		Tensors: []kernel.TensorSpec{
			{Name: "A", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "O", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		},
	}
	ij := kernel.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	k.Body = []kernel.BodyOp{
		{Name: "acc", Kind: ir.OpAdd,
			A: kernel.Fixed(kernel.Mem("A", ij)),
			B: kernel.In(
				kernel.Case{When: kernel.Before(1, 2), Src: kernel.Const(0)},
				kernel.Case{When: kernel.Always(), Src: kernel.Dep(0, 0, 2)}),
			Stores: []kernel.StoreRule{{When: kernel.Always(), Tensor: "O", Map: ij}}},
	}
	return k
}

func TestForwardingTransform(t *testing.T) {
	k := multiHopKernel()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	d, g, err := k.BuildISDG([]int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Force a scheme that maps dim 1 to space: the (0,2) dependence
	// becomes a 2-hop offset needing forwarding.
	sch := systolic.Scheme{SpaceDims: []int{0, 1}, TimePerm: nil, Skew: []int{0, 1}}
	m := sch.Realize([]int{4, 6})
	if m.Classify(ir.IterVec{0, 2}) != systolic.DepForward {
		t.Fatalf("expected DepForward for (0,2) under %v", sch)
	}
	nd, g2, err := ApplyForwarding(d, g, m)
	if err != nil {
		t.Fatal(err)
	}
	if nd == d {
		t.Fatal("forwarding should have rebuilt the DFG")
	}
	routes := 0
	for _, n := range nd.Nodes {
		if n.Kind == ir.OpRoute {
			routes++
		}
	}
	if routes == 0 {
		t.Error("no relay nodes inserted")
	}
	// After forwarding every dependence must be local.
	for _, dv := range g2.DistanceVectors() {
		if m.Classify(dv) != systolic.DepLocal {
			t.Errorf("dependence %v still non-local after forwarding", dv)
		}
	}
	// Functional equivalence of the transformed DFG.
	inputs := k.DefaultInputs([]int{4, 6}, 5)
	want, err := kernel.ExecuteDFG(k, d, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kernel.ExecuteDFG(k, nd, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := kernel.CompareOutputs(want, got); err != nil {
		t.Error(err)
	}

	// A DFG whose iterations leave the block it states (here: a block
	// shrunk behind its back) ends in ErrSchemeInfeasible, through the
	// ISDG's bounds check, not in an index panic.
	d.Block = []int{4, 5}
	if _, _, err := ApplyForwarding(d, g, m); !errors.Is(err, diag.ErrSchemeInfeasible) {
		t.Errorf("forwarding over a too-small block: err = %v, want ErrSchemeInfeasible", err)
	}
}

func TestRelayPolicyAblation(t *testing.T) {
	// Relay-pin ablation: with the default architecture the negotiated
	// router compensates for register-only relays (utilization may tie but
	// never beat the crossbar policy); both variants must produce valid,
	// equal-or-worse mappings.
	auto, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	regOnly, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), Options{RelayPolicy: RelayRegistersOnly})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Utilization < 1.0-1e-9 {
		t.Errorf("auto relay policy U = %v, want 100%%", auto.Utilization)
	}
	if regOnly.Utilization > auto.Utilization+1e-9 {
		t.Errorf("register-only relays must not beat crossbar relays: %v vs %v",
			regOnly.Utilization, auto.Utilization)
	}
	if err := regOnly.Config.Validate(); err != nil {
		t.Errorf("register-only config invalid: %v", err)
	}
}

func TestNegotiatedCongestionAblation(t *testing.T) {
	// SPR-style cost escalation is load-bearing (§V): with a single
	// routing round, FW's congested minimal depth cannot be resolved and
	// the mapper falls back to a deeper, lower-utilization sub-CGRA
	// mapping.
	full, err := CompileRequest(context.Background(), kernel.FW(), arch.DefaultFabric(4, 4), Options{MaxRouteRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	one, err := CompileRequest(context.Background(), kernel.FW(), arch.DefaultFabric(4, 4), Options{MaxRouteRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Utilization >= full.Utilization {
		t.Errorf("disabling negotiation should cost utilization: %v vs %v",
			one.Utilization, full.Utilization)
	}
}

func TestIterationMapRendersAllClasses(t *testing.T) {
	res, err := CompileRequest(context.Background(), kernel.BICG(), arch.DefaultFabric(4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.IterationMap()
	if !strings.Contains(s, "9 classes") {
		t.Errorf("header missing: %q", strings.SplitN(s, "\n", 2)[0])
	}
	// Every class ID 0..8 must appear in the rendering.
	for cls := 0; cls < 9; cls++ {
		if !strings.Contains(s, fmt.Sprintf("%3d ", cls)) {
			t.Errorf("class %d missing from the map", cls)
		}
	}
}
