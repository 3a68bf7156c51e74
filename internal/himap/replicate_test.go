package himap

import (
	"context"
	"testing"

	"himap/internal/arch"
	"himap/internal/kernel"
)

// replicateValidateAllocCeiling is the measured allocation count of one
// replicate + validate run of ADI 32x32: the configuration (3), the
// claim and node tables, two templates per class with their refs, and
// the chunks the per-word pieces are carved from — nothing per cluster.
const replicateValidateAllocCeiling = 165

// BenchmarkReplicateValidate isolates Algorithm 1 line 29 and the final
// check: ADI on 32x32 is compiled once through the route stage, then the
// replicate and validate stages run from that prepared context — every
// cluster stamped from its class template, then every word validated.
// Like BenchmarkRouteSinkHotPath it is also a gate: it fails if a run
// allocates more than the ceiling, which is what stamping by translation
// (not re-derivation) is measured by. It lives here, not in the root
// bench_test.go, because the stages and the attempt context are
// unexported.
func BenchmarkReplicateValidate(b *testing.B) {
	opts := Options{Workers: 1, Memo: NewMemo()}.withDefaults()
	front := newContext(context.Background(), kernel.ADI(), arch.DefaultFabric(32, 32), opts)
	if err := frontStages.Run(front); err != nil {
		b.Fatal(err)
	}
	route, stamp := attemptStages[:len(attemptStages)-2], attemptStages[len(attemptStages)-2:]
	var c *CompileContext
	for i, a := range front.Attempts {
		if c = front.forAttempt(a, i+1, 1); route.Run(c) == nil {
			break
		}
		c = nil
	}
	if c == nil {
		b.Fatal("no attempt routed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stamp.Run(c); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(5, func() { stamp.Run(c) }); allocs > replicateValidateAllocCeiling {
		b.Fatalf("replicate+validate regressed: %.0f allocs per run, ceiling is %d", allocs, replicateValidateAllocCeiling)
	}
}
