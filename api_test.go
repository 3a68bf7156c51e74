package himap_test

import (
	"strings"
	"testing"

	"himap"
)

// TestPublicAPIEndToEnd exercises the facade: compile, inspect, validate,
// render — the quickstart flow.
func TestPublicAPIEndToEnd(t *testing.T) {
	k := himap.KernelGEMM()
	res, err := compile(k, himap.DefaultCGRA(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.99 {
		t.Errorf("U = %v", res.Utilization)
	}
	if err := himap.Validate(res, 2, 11); err != nil {
		t.Fatal(err)
	}
	if s := himap.RenderSchedule(res.Config); !strings.Contains(s, "cycle 0") {
		t.Error("schedule render broken")
	}
	if s := himap.RenderPEProgram(res.Config, 0, 0); !strings.Contains(s, "PE(0,0)") {
		t.Error("program render broken")
	}
	if s := himap.RenderUtilization(res.Config); !strings.Contains(s, "100%") {
		t.Error("utilization render broken")
	}
	model := himap.DefaultPowerModel()
	if model.PerformanceMOPS(res.Config) <= 0 || model.PowerMW(res.Config) <= 0 {
		t.Error("power model broken")
	}
}

func TestPublicAPIKernelAccessors(t *testing.T) {
	if len(himap.EvaluationKernels()) != 8 {
		t.Error("expected the 8 Table-II kernels")
	}
	for _, name := range []string{"ADI", "ATAX", "BICG", "MVT", "GEMM", "SYRK", "FW", "TTM", "CONV2D"} {
		k, err := himap.KernelByName(name)
		if err != nil || k.Name != name {
			t.Errorf("KernelByName(%s): %v, %v", name, k, err)
		}
	}
	if _, err := himap.KernelByName("nope"); err == nil {
		t.Error("unknown kernel should fail")
	}
}

func TestPublicAPIBaseline(t *testing.T) {
	k := himap.KernelBICG()
	res, err := compileBaseline(k, himap.DefaultCGRA(4, 4), []int{3, 3}, himap.BaselineOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := himap.ValidateConfig(res.Config, k, res.Block, 2, 3); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPICustomKernelDSL defines a kernel through the exported DSL
// and maps it — the custom-kernel example's flow as a regression test.
func TestPublicAPICustomKernelDSL(t *testing.T) {
	ij := himap.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	k := &himap.Kernel{
		Name: "ROWSUM", Desc: "row prefix sums", Suite: "custom",
		Dim: 2, MinBlock: 2,
		Tensors: []himap.TensorSpec{
			{Name: "A", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "O", Out: true, Dims: func(b []int) []int { return []int{b[0], b[1]} }},
		},
		Body: []himap.BodyOp{
			{Name: "acc", Kind: himap.OpAdd,
				A: himap.Fixed(himap.Mem("A", ij)),
				B: himap.In(
					himap.Case{When: himap.First(1), Src: himap.ConstSrc(0)},
					himap.Case{When: himap.Always(), Src: himap.Dep(0, 0, 1)}),
				Stores: []himap.StoreRule{{When: himap.Always(), Tensor: "O", Map: ij}}},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := compile(k, himap.DefaultCGRA(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := himap.Validate(res, 3, 21); err != nil {
		t.Fatal(err)
	}
}

// TestCompileAutoDispatch: the Table-I triage — multi-dimensional kernels
// with dependencies use HiMap, 1-D / dependence-free kernels fall back to
// conventional modulo scheduling.
func TestCompileAutoDispatch(t *testing.T) {
	cg := himap.DefaultCGRA(4, 4)
	res, err := himap.CompileAuto(himap.KernelGEMM(), cg, himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "himap" || res.Sub == nil {
		t.Errorf("GEMM should dispatch to himap, got %q", res.Backend)
	}
	for _, k := range []*himap.Kernel{himap.KernelDOTPROD(), himap.KernelRELU()} {
		res, err := himap.CompileAuto(k, cg, himap.Options{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if res.Backend != "conventional" || res.Conventional == nil {
			t.Errorf("%s should dispatch to the conventional mapper, got %q", k.Name, res.Backend)
		}
		if err := himap.ValidateConfig(res.Config, k, res.Block, 2, 9); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}
