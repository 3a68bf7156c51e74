package exact

import (
	"context"
	"errors"
	"testing"
	"time"

	"himap/internal/arch"
	"himap/internal/baseline"
	"himap/internal/diag"
	"himap/internal/kernel"
	"himap/internal/sim"
)

// acceptance instances: small enough for the search to close, large
// enough to exercise memory ports, RF turnaround, and egress pinning.
const (
	accSize   = 4
	accBlock  = 2
	accBudget = 60 * time.Second
)

// TestProvedMinimalSmallKernels is the headline acceptance criterion:
// the exact backend proves the minimal II — with a certificate — on at
// least 3 of the 8 evaluation kernels at 4x4/block-2 within the budget,
// and every emitted mapping is functionally correct on the
// cycle-accurate simulator. The four kernels below close in
// milliseconds; their IIs and certificates are pinned.
func TestProvedMinimalSmallKernels(t *testing.T) {
	want := map[string]int{"ATAX": 2, "BICG": 2, "MVT": 2, "TTM": 4}
	proved := 0
	for name, wantII := range want {
		name, wantII := name, wantII
		t.Run(name, func(t *testing.T) {
			k, err := kernel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(accBlock),
				Options{TimeBudget: accBudget})
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if res.II != wantII {
				t.Errorf("II = %d, want %d", res.II, wantII)
			}
			if !res.Optimality.ProvedMinimal {
				t.Fatalf("II %d not proved minimal (lb %d, cert %q)",
					res.II, res.Optimality.IILowerBound, res.Optimality.Certificate)
			}
			if res.Optimality.Certificate != CertResMII {
				t.Errorf("certificate %q, want %q", res.Optimality.Certificate, CertResMII)
			}
			if res.Optimality.IILowerBound != res.II {
				t.Errorf("proved-minimal lower bound %d != II %d", res.Optimality.IILowerBound, res.II)
			}
			if err := sim.Validate(res.Config, k, res.Block, 3, 7); err != nil {
				t.Errorf("exact mapping fails cycle-accurate validation: %v", err)
			}
			proved++
		})
	}
	if proved < 3 {
		t.Errorf("only %d kernels proved minimal, acceptance requires >= 3", proved)
	}
}

// TestExactIsUpperBoundedBySA: on the same instance (kernel, block,
// fabric), the exact mapper never returns a worse II than the SA
// baseline — it searches the same flat space exhaustively.
func TestExactIsUpperBoundedBySA(t *testing.T) {
	if testing.Short() {
		t.Skip("8 SA + 8 exact compiles")
	}
	for _, k := range kernel.Evaluation() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			block := k.UniformBlock(accBlock)
			eres, err := CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), block, Options{TimeBudget: accBudget})
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			bres, err := baseline.CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), block, baseline.Options{Seed: 1})
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if eres.II > bres.II {
				t.Errorf("exact II %d worse than SA II %d on the same instance", eres.II, bres.II)
			}
			if eres.Optimality.ProvedMinimal && bres.II < eres.II {
				t.Errorf("SA II %d beats a proved-minimal exact II %d — certificate unsound", bres.II, eres.II)
			}
		})
	}
}

// TestLowerBoundStatic pins LowerBound's universal semantics: route
// pseudo-ops are excluded from the FU term, loads and stores bound
// separately, floor 1.
func TestLowerBoundStatic(t *testing.T) {
	k, err := kernel.ByName("MVT")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := LowerBound(k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(accBlock))
	if err != nil {
		t.Fatal(err)
	}
	if lb < 1 {
		t.Errorf("LowerBound = %d, want >= 1", lb)
	}
	// A proved-minimal exact II can never undercut the universal bound.
	res, err := CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(accBlock),
		Options{TimeBudget: accBudget})
	if err != nil {
		t.Fatal(err)
	}
	if res.II < lb {
		t.Errorf("exact II %d below the universal lower bound %d", res.II, lb)
	}
	if _, err := LowerBound(nil, arch.DefaultFabric(accSize, accSize), nil); !errors.Is(err, diag.ErrInvalidRequest) {
		t.Errorf("LowerBound(nil kernel) = %v, want ErrInvalidRequest", err)
	}
}

// TestTooLargeRefused: the node wall refuses hopeless instances with a
// typed error, before and after DFG materialization.
func TestTooLargeRefused(t *testing.T) {
	k, err := kernel.ByName("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(8), Options{})
	var tooLarge ErrTooLarge
	if !errors.As(err, &tooLarge) {
		t.Fatalf("oversized block: %v, want ErrTooLarge", err)
	}
	if tooLarge.Nodes <= tooLarge.Max {
		t.Errorf("ErrTooLarge reports %d nodes under the %d wall", tooLarge.Nodes, tooLarge.Max)
	}
}

// TestDeterministicResults: two independent searches of the same
// instance return identical placements (the search has no hidden
// randomness or wall-clock dependence when TimeBudget is unset).
func TestDeterministicResults(t *testing.T) {
	k, err := kernel.ByName("BICG")
	if err != nil {
		t.Fatal(err)
	}
	a, err := CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(accBlock), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(accBlock), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.II != b.II || a.Optimality != b.Optimality {
		t.Fatalf("nondeterministic result: %+v vs %+v", a.Optimality, b.Optimality)
	}
	for r := 0; r < accSize; r++ {
		for c := 0; c < accSize; c++ {
			for tt := 0; tt < a.Config.II; tt++ {
				if a.Config.At(r, c, tt).String() != b.Config.At(r, c, tt).String() {
					t.Fatalf("configs differ at r%d c%d t%d", r, c, tt)
				}
			}
		}
	}
}

// TestCanceledContext: cancellation surfaces as ErrCanceled with the
// original context error in the chain.
func TestCanceledContext(t *testing.T) {
	k, err := kernel.ByName("FW")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = CompileRequest(ctx, k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(accBlock), Options{})
	if !errors.Is(err, diag.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled compile: %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestProvedInfeasibleTinyFabric: a 1x1 fabric cannot hold a multi-op
// kernel block within MaxII; the mapper must either prove infeasibility
// or report honest unprovenness — never claim success.
func TestProvedInfeasibleTinyFabric(t *testing.T) {
	k, err := kernel.ByName("MVT")
	if err != nil {
		t.Fatal(err)
	}
	// Block 2 MVT needs more memory ports per II than one PE provides at
	// MaxII 3, so every candidate II is refuted by the port propagators.
	_, err = CompileRequest(context.Background(), k, arch.DefaultFabric(1, 1), k.UniformBlock(accBlock),
		Options{MaxII: 3})
	if err == nil {
		t.Fatal("MVT block 2 mapped onto a 1x1 fabric at II <= 3")
	}
	if !errors.Is(err, diag.ErrProvedInfeasible) && !errors.Is(err, diag.ErrPlacementInfeasible) {
		t.Errorf("tiny-fabric failure %v, want proved or placement infeasibility", err)
	}
}
