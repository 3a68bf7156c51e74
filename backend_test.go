package himap_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"

	"himap"
)

// TestBackendsDeterministicOrder pins the mapper list's order: sorted by
// name, stable across calls, containing the three built-ins.
func TestBackendsDeterministicOrder(t *testing.T) {
	names := himap.Backends()
	if !sort.SliceIsSorted(names, func(i, j int) bool { return names[i] < names[j] }) {
		t.Errorf("Backends() not sorted: %v", names)
	}
	again := himap.Backends()
	if len(again) != len(names) {
		t.Fatalf("Backends() unstable: %v then %v", names, again)
	}
	for i := range names {
		if names[i] != again[i] {
			t.Fatalf("Backends() unstable: %v then %v", names, again)
		}
	}
	seen := map[himap.Mapper]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []himap.Mapper{himap.MapperHiMap, himap.MapperConventional, himap.MapperExact} {
		if !seen[want] {
			t.Errorf("built-in backend %q missing from Backends(): %v", want, names)
		}
	}
	joined := himap.BackendNames()
	if !strings.Contains(joined, "conventional|exact|himap") {
		t.Errorf("BackendNames() = %q, want the sorted built-ins conventional|exact|himap", joined)
	}
}

// mapperConstants parses request.go for every constant declared with
// type Mapper, so the totality check below cannot miss one added later.
func mapperConstants(t *testing.T) []himap.Mapper {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "request.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []himap.Mapper
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Mapper" {
			return true
		}
		for _, v := range vs.Values {
			name, err := strconv.Unquote(v.(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, himap.Mapper(name))
		}
		return true
	})
	return out
}

// TestBackendsDispatchTotal pins the dispatch switch against the name
// list: every Mapper constant is in Backends(), every Backends() name
// compiles and is stamped into Result.Backend, and the empty mapper
// means MapperHiMap.
func TestBackendsDispatchTotal(t *testing.T) {
	listed := map[himap.Mapper]bool{}
	for _, m := range himap.Backends() {
		listed[m] = true
	}
	consts := mapperConstants(t)
	if len(consts) != len(listed) {
		t.Errorf("request.go declares %v, Backends() lists %v", consts, himap.Backends())
	}
	for _, m := range consts {
		if !listed[m] {
			t.Errorf("Mapper constant %q missing from Backends() %v", m, himap.Backends())
		}
	}
	for _, m := range append([]himap.Mapper{""}, himap.Backends()...) {
		res, err := himap.CompileRequest(context.Background(), himap.Request{
			Kernel: himap.KernelMVT(),
			Fabric: himap.DefaultFabric(4, 4),
			Mapper: m,
			Block:  []int{2, 2},
		})
		if err != nil {
			t.Errorf("mapper %q does not dispatch: %v", m, err)
			continue
		}
		want := m
		if want == "" {
			want = himap.MapperHiMap
		}
		if res.Backend != string(want) {
			t.Errorf("mapper %q: Result.Backend = %q, want %q", m, res.Backend, want)
		}
	}
}

// TestUnknownMapperEnumeratesBackends pins the unknown-mapper error to
// the sorted mapper list, so the message stays truthful as backends come
// and go.
func TestUnknownMapperEnumeratesBackends(t *testing.T) {
	_, err := himap.CompileRequest(context.Background(), himap.Request{
		Kernel: himap.KernelMVT(),
		Fabric: himap.DefaultFabric(4, 4),
		Mapper: "magic",
	})
	if err == nil {
		t.Fatal("unknown mapper compiled")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"magic"`) || !strings.Contains(msg, himap.BackendNames()) {
		t.Errorf("unknown-mapper error %q, want the name and the sorted mapper list %q", msg, himap.BackendNames())
	}
}

// conventionalFingerprints pins the conventional mapper's mappings for
// the eight evaluation kernels (8x8 default CGRA, uniform block 2,
// seed 1), captured from the direct per-package dispatch that preceded
// CompileRequest. Dispatched compiles must reproduce them bit-identically.
var conventionalFingerprints = map[string]string{
	"ADI":  "d3ebe4ad32ac923b0c57db68a206a8c6e812419157169d401bb2c6867076aea9",
	"ATAX": "97c8e64ae15e24fd7cd0d45e47635a2c4e9698df6dc39420399d244ae97a2bca",
	"BICG": "b45d6152c7424c45f29fe0279d49d97b553cc42e59e4cd2fe2767ff98504f9de",
	"MVT":  "1d425a8d1d2504302086bbf6f6795fdbfc4b490fc0422f5949f78e76d21fd4eb",
	"GEMM": "196d5f96fdaa18529e05639c1d32c755a2885ac7d6a3667f255556e398880171",
	"SYRK": "32b21696208b369dff4a2c552853dec4b805b96cf454335bb2f28279d3abb489",
	"FW":   "25372105134eed458274c06702579bfa00ed28ee5e380088aa086650c09b99f2",
	"TTM":  "18cc32ad3684fdb7eccdd927d89fd7d55383afae21634344ec04692dd7558036",
}

// TestRegistryDifferentialFingerprints is the dispatch's differential
// anchor: the himap and conventional flows, dispatched through
// CompileRequest, must produce bit-identical mappings to the direct
// per-package calls (goldenMappings, conventionalFingerprints). Backend
// identity must be stamped on every result.
func TestRegistryDifferentialFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("16 full 8x8 compiles")
	}
	for _, k := range himap.EvaluationKernels() {
		k := k
		t.Run("himap/"+k.Name, func(t *testing.T) {
			res, err := himap.CompileRequest(context.Background(), himap.Request{
				Kernel: k,
				Fabric: himap.Fabric{CGRA: himap.DefaultCGRA(8, 8)},
				Mapper: himap.MapperHiMap,
			})
			if err != nil {
				t.Fatalf("CompileRequest(himap, %s): %v", k.Name, err)
			}
			if res.Backend != string(himap.MapperHiMap) {
				t.Errorf("Backend = %q, want %q", res.Backend, himap.MapperHiMap)
			}
			got := mappingFingerprint(res.Config, 8, 8)
			if want := goldenMappings[k.Name]; got != want {
				t.Errorf("%s: himap fingerprint drifted through CompileRequest\n got %s\nwant %s", k.Name, got, want)
			}
		})
		t.Run("conventional/"+k.Name, func(t *testing.T) {
			res, err := himap.CompileRequest(context.Background(), himap.Request{
				Kernel:   k,
				Fabric:   himap.Fabric{CGRA: himap.DefaultCGRA(8, 8)},
				Mapper:   himap.MapperConventional,
				Block:    k.UniformBlock(2),
				Baseline: himap.BaselineOptions{Seed: 1},
			})
			if err != nil {
				t.Fatalf("CompileRequest(conventional, %s): %v", k.Name, err)
			}
			if res.Backend != string(himap.MapperConventional) {
				t.Errorf("Backend = %q, want %q", res.Backend, himap.MapperConventional)
			}
			if res.Conventional == nil {
				t.Fatal("Result.Conventional is nil for the conventional backend")
			}
			got := mappingFingerprint(res.Config, 8, 8)
			if want := conventionalFingerprints[k.Name]; got != want {
				t.Errorf("%s: conventional fingerprint drifted through CompileRequest\n got %s\nwant %s", k.Name, got, want)
			}
		})
	}
}
