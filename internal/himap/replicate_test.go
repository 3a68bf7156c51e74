package himap

import (
	"context"
	"testing"

	"himap/internal/arch"
	"himap/internal/kernel"
	"himap/internal/route"
)

// replicateValidateAllocCeiling is the measured allocation count of one
// replicate + validate run of ADI 32x32: the configuration (3), the
// claim table, the load and store lists sized once, two templates per
// class with their refs, and the chunks the per-word pieces are carved
// from — nothing per cluster, and no node table (the DFG carries it).
const replicateValidateAllocCeiling = 139

// replicateValidateIter isolates Algorithm 1 line 29 and the final
// check: ADI on 32x32 is compiled once through the route stage, and the
// returned closure runs the replicate and validate stages from that
// prepared context — every cluster stamped from its class template, then
// every word validated. It lives here, not in the root bench_test.go,
// because the stages and the attempt context are unexported.
func replicateValidateIter(tb testing.TB) func() {
	opts := Options{Workers: 1, Memo: NewMemo()}.withDefaults()
	front := newContext(context.Background(), kernel.ADI(), arch.DefaultFabric(32, 32), opts)
	if err := frontStages.Run(front); err != nil {
		tb.Fatal(err)
	}
	upToRoute, stamp := attemptStages[:len(attemptStages)-2], attemptStages[len(attemptStages)-2:]
	ses := new(route.Session)
	for i, a := range front.Attempts {
		if c := front.forAttempt(a, front.Ctx, i+1, 1, ses); upToRoute.Run(c) == nil {
			return func() {
				if err := stamp.Run(c); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	tb.Fatal("no attempt routed")
	return nil
}

func BenchmarkReplicateValidate(b *testing.B) {
	iter := replicateValidateIter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// TestReplicateValidateAllocCeiling fails if a run allocates more than
// the ceiling, which is what stamping by translation (not re-derivation)
// is measured by; the root package's TestRouteSinkAllocCeiling records
// what the two ceilings cover. The count is the same under the race
// detector, so scripts/check.sh (race only) gates it too.
func TestReplicateValidateAllocCeiling(t *testing.T) {
	if allocs := testing.AllocsPerRun(5, replicateValidateIter(t)); allocs > replicateValidateAllocCeiling {
		t.Fatalf("replicate+validate regressed: %.0f allocs per run, ceiling is %d", allocs, replicateValidateAllocCeiling)
	}
}

// TestReplicateSizesIOOnce: replicate sizes Loads and Stores from its
// class templates before it stamps, so neither list grows: on a mesh and
// a torus, every evaluation kernel's lists have their length as their
// capacity.
func TestReplicateSizesIOOnce(t *testing.T) {
	torus := arch.DefaultFabric(8, 8)
	torus.Topology = arch.TopoTorus
	for _, fab := range []arch.Fabric{arch.DefaultFabric(8, 8), torus} {
		for _, k := range kernel.Evaluation() {
			res, err := CompileRequest(context.Background(), k, fab, Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s on %v: %v", k.Name, fab, err)
			}
			cfg := res.Config
			if len(cfg.Loads) == 0 || len(cfg.Stores) == 0 ||
				cap(cfg.Loads) != len(cfg.Loads) || cap(cfg.Stores) != len(cfg.Stores) {
				t.Errorf("%s on %v: %d of %d loads, %d of %d stores", k.Name, fab,
					len(cfg.Loads), cap(cfg.Loads), len(cfg.Stores), cap(cfg.Stores))
			}
		}
	}
}
