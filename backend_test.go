package himap_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"himap"
)

// stubBackend is a registry probe; its Compile is never reached in these
// tests.
type stubBackend struct{ name himap.Mapper }

func (b stubBackend) Name() himap.Mapper              { return b.name }
func (b stubBackend) Capabilities() himap.BackendCaps { return himap.BackendCaps{} }
func (stubBackend) Compile(context.Context, himap.Request) (*himap.Result, error) {
	return nil, nil
}

// TestRegisterBackendDuplicateRejected pins the registry contract: a
// second registration under an existing name (and degenerate
// registrations) fail without disturbing the registry.
func TestRegisterBackendDuplicateRejected(t *testing.T) {
	before := himap.Backends()
	if err := himap.RegisterBackend(stubBackend{name: himap.MapperHiMap}); err == nil {
		t.Error("RegisterBackend(duplicate himap) succeeded, want error")
	}
	if err := himap.RegisterBackend(stubBackend{name: ""}); err == nil {
		t.Error("RegisterBackend(empty name) succeeded, want error")
	}
	if err := himap.RegisterBackend(nil); err == nil {
		t.Error("RegisterBackend(nil) succeeded, want error")
	}
	after := himap.Backends()
	if len(after) != len(before) {
		t.Errorf("failed registrations changed the registry: %v -> %v", before, after)
	}
}

// TestBackendsDeterministicOrder pins the registry's iteration order:
// sorted by name, stable across calls, containing the three built-ins.
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
			t.Errorf("built-in backend %q missing from registry: %v", want, names)
		}
	}
	joined := himap.BackendNames()
	if !strings.Contains(joined, "conventional|exact|himap") {
		t.Errorf("BackendNames() = %q, want the sorted built-ins conventional|exact|himap", joined)
	}
}

// TestBackendForResolvesBuiltins covers lookup, the empty-name default,
// and the capability advertisements the serving layer relies on.
func TestBackendForResolvesBuiltins(t *testing.T) {
	def, ok := himap.BackendFor("")
	if !ok || def.Name() != himap.MapperHiMap {
		t.Fatalf(`BackendFor("") = %v, %v; want the himap backend`, def, ok)
	}
	if _, ok := himap.BackendFor("no-such-backend"); ok {
		t.Error(`BackendFor("no-such-backend") resolved, want miss`)
	}
	ex, ok := himap.BackendFor(himap.MapperExact)
	if !ok {
		t.Fatal("BackendFor(exact) missed")
	}
	if caps := ex.Capabilities(); !caps.Proves || !caps.UsesExact || !caps.UsesBlock {
		t.Errorf("exact capabilities %+v, want Proves, UsesExact, UsesBlock", caps)
	}
	hb, _ := himap.BackendFor(himap.MapperHiMap)
	if caps := hb.Capabilities(); caps.Proves || !caps.UsesOptions {
		t.Errorf("himap capabilities %+v, want UsesOptions without Proves", caps)
	}
}

// TestUnknownMapperEnumeratesBackends pins the unknown-mapper error to
// the sorted registry contents, so the message stays truthful as
// backends come and go.
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
		t.Errorf("unknown-mapper error %q, want the name and the sorted registry %q", msg, himap.BackendNames())
	}
}

// conventionalFingerprints pins the conventional mapper's mappings for
// the eight evaluation kernels (8x8 default CGRA, uniform block 2,
// seed 1), captured immediately before the backend-registry refactor.
// Registry-routed compiles must reproduce them bit-identically.
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

// TestRegistryDifferentialFingerprints is the refactor's differential
// anchor: the himap and conventional flows, dispatched through the
// backend registry, must produce bit-identical mappings to the
// pre-refactor direct dispatch (defaultFabricFingerprints captured
// before the Fabric refactor, conventionalFingerprints captured before
// this one). Backend identity must be stamped on every result.
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
				t.Errorf("%s: himap fingerprint drifted through the registry\n got %s\nwant %s", k.Name, got, want)
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
				t.Errorf("%s: conventional fingerprint drifted through the registry\n got %s\nwant %s", k.Name, got, want)
			}
		})
	}
}
