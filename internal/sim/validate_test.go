package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/baseline"
	"himap/internal/himap"
	"himap/internal/kernel"
	"himap/internal/systolic"
)

// TestValidateAllKernels is the paper's functional-validation experiment
// (§VI): every Table-II kernel's HiMap mapping executes cycle-accurately
// and matches the golden executor over three pipelined block instances.
func TestValidateAllKernels(t *testing.T) {
	for _, k := range kernel.Evaluation() {
		res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
		if err != nil {
			t.Errorf("%s: compile: %v", k.Name, err)
			continue
		}
		if err := Validate(res.Config, k, res.Block, 3, 1234); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

// TestValidateAllKernels8x8 exercises the bigger array (more boundary
// classes, longer routes).
func TestValidateAllKernels8x8(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, k := range kernel.Evaluation() {
		res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(8, 8), himap.Options{})
		if err != nil {
			t.Errorf("%s: compile: %v", k.Name, err)
			continue
		}
		if err := Validate(res.Config, k, res.Block, 2, 99); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

// TestValidateLinearArray validates the §II configuration end to end.
func TestValidateLinearArray(t *testing.T) {
	k := kernel.BICG()
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(8, 1), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Config, k, res.Block, 3, 5); err != nil {
		t.Error(err)
	}
}

// TestValidateConv2D validates the extension kernel.
func TestValidateConv2D(t *testing.T) {
	k := kernel.Conv2D()
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Config, k, res.Block, 2, 6); err != nil {
		t.Error(err)
	}
}

// TestValidateBaselineMapping validates a conventional mapping too: the
// simulator is mapper-agnostic.
func TestValidateBaselineMapping(t *testing.T) {
	k := kernel.GEMM()
	block := []int{2, 2, 2}
	res, err := baseline.CompileRequest(context.Background(), k, arch.DefaultFabric(2, 2), block, baseline.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Config, k, block, 2, 77); err != nil {
		t.Error(err)
	}
}

// TestValidateManyBlocks runs a deeper pipeline to catch inter-block
// interference.
func TestValidateManyBlocks(t *testing.T) {
	k := kernel.MVT()
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Config, k, res.Block, 6, 31); err != nil {
		t.Error(err)
	}
}

// TestValidateDetectsCorruption: flipping one instruction must break
// validation — the oracle is not vacuous.
func TestValidateDetectsCorruption(t *testing.T) {
	k := kernel.GEMM()
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: change the first compute op found into a subtraction.
	cfg := res.Config
outer:
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			for tt := 0; tt < cfg.II; tt++ {
				in := cfg.At(r, c, tt)
				if in.Op.IsCompute() && in.Op.String() == "add" {
					in.Op = kernel.GEMM().Body[2].Kind // mul instead of add
					break outer
				}
			}
		}
	}
	err = Validate(cfg, k, res.Block, 2, 1234)
	if err == nil {
		t.Fatal("corrupted mapping passed validation")
	}
	if !strings.Contains(err.Error(), "block") {
		t.Errorf("unexpected error form: %v", err)
	}
}

// TestValidateRejectsBadArgs.
func TestValidateRejectsBadArgs(t *testing.T) {
	k := kernel.GEMM()
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Config, k, res.Block, 0, 1); err == nil {
		t.Error("nblocks 0 should fail")
	}
}

// TestValidateExtensionKernels maps and validates the extension kernels:
// NW's diagonal wavefront dependence forces a linear space allocation;
// DOITGEN mirrors TTM's 4-D reuse structure on different tensors.
func TestValidateExtensionKernels(t *testing.T) {
	for _, k := range []*kernel.Kernel{kernel.NW(), kernel.DOITGEN()} {
		res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
		if err != nil {
			t.Errorf("%s: compile: %v", k.Name, err)
			continue
		}
		if err := Validate(res.Config, k, res.Block, 2, 404); err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		t.Logf("%s: %s", k.Name, res.Summary())
	}
}

// TestBitstreamRoundTripExecutes encodes a mapping to its binary
// configuration image, decodes it back, re-attaches the simulation-only
// memory correlation tags, and validates the decoded configuration
// cycle-accurately — the bitstream carries everything the hardware needs.
func TestBitstreamRoundTripExecutes(t *testing.T) {
	k := kernel.GEMM()
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := arch.Encode(res.Config)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bitstream: %d bytes total, max %d words/PE", bs.TotalBytes(), bs.MaxWordsPerPE())
	dec, err := bs.Decode(res.Config.Fabric)
	if err != nil {
		t.Fatal(err)
	}
	// Memory tags and I/O correlation are metadata outside the bitstream.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			for tt := 0; tt < dec.II; tt++ {
				dec.At(r, c, tt).MemRead.Tag = res.Config.At(r, c, tt).MemRead.Tag
				dec.At(r, c, tt).MemWrite.Tag = res.Config.At(r, c, tt).MemWrite.Tag
			}
		}
	}
	dec.Loads = res.Config.Loads
	dec.Stores = res.Config.Stores
	if err := Validate(dec, k, res.Block, 2, 808); err != nil {
		t.Fatal(err)
	}
}

// TestValidateConv3D: the deepest loop nest in the library (6 levels)
// compiles and executes correctly.
func TestValidateConv3D(t *testing.T) {
	k := kernel.Conv3D()
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{InnerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Config, k, res.Block, 2, 606); err != nil {
		t.Error(err)
	}
}

// TestValidateForwardingKernel drives AddForwardingPath through the FULL
// pipeline: a kernel with a distance-2 dependence is forced onto a scheme
// that maps that dimension spatially, so relay pseudo-ops are inserted
// into intermediate iterations, replicated, and must still compute
// correctly cycle-accurately.
func TestValidateForwardingKernel(t *testing.T) {
	ij := kernel.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	k := &kernel.Kernel{
		Name: "HOP2", Desc: "distance-2 dependence (forwarding)", Suite: "custom",
		Dim: 2, MinBlock: 4,
		Tensors: []kernel.TensorSpec{
			{Name: "A", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "O", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		},
		Body: []kernel.BodyOp{
			{Name: "acc", Kind: kernel.GEMM().Body[3].Kind, // add
				A: kernel.Fixed(kernel.Mem("A", ij)),
				B: kernel.In(
					kernel.Case{When: kernel.Before(1, 2), Src: kernel.Const(0)},
					kernel.Case{When: kernel.Always(), Src: kernel.Dep(0, 0, 2)}),
				Stores: []kernel.StoreRule{{When: kernel.Always(), Tensor: "O", Map: ij}}},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	// Force both dimensions spatial: the (0,2) dependence becomes a 2-hop
	// offset and must be broken by forwarding relays.
	sch := systolic.Scheme{SpaceDims: []int{0, 1}, TimePerm: nil, Skew: []int{0, 1}}
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{ForceScheme: &sch})
	if err != nil {
		t.Fatalf("forwarding compile: %v", err)
	}
	relays := 0
	for _, n := range res.DFG.Nodes {
		if n.Kind.String() == "route" {
			relays++
		}
	}
	if relays == 0 {
		t.Fatal("no forwarding relays inserted; the scheme should force them")
	}
	if err := Validate(res.Config, k, res.Block, 3, 55); err != nil {
		t.Fatalf("forwarded mapping fails validation: %v", err)
	}
	t.Logf("forwarding: %d relays, %s", relays, res.Summary())
}

// TestJSONRoundTripExecutes: a mapping saved to JSON and loaded back
// executes identically — the serialized form is complete.
func TestJSONRoundTripExecutes(t *testing.T) {
	k := kernel.BICG()
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Config.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := arch.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(loaded, k, res.Block, 2, 333); err != nil {
		t.Fatal(err)
	}
}
