package exact

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"himap/internal/arch"
	"himap/internal/baseline"
	"himap/internal/diag"
	"himap/internal/kernel"
	"himap/internal/route"
	"himap/internal/sim"
)

// acceptance instances: small enough for the search to close, large
// enough to exercise memory ports, RF turnaround, and egress pinning.
const (
	accSize  = 4
	accBlock = 2
)

// TestProvedMinimalSmallKernels is the headline acceptance criterion:
// the exact backend proves the minimal II — with a certificate — on at
// least 3 of the 8 evaluation kernels at 4x4/block-2, and every emitted mapping is functionally correct on the
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
				Options{})
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
			eres, err := CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), block, Options{})
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
		Options{})
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
// dfg-build ErrTooLarge StageError naming the default 96-node wall.
func TestTooLargeRefused(t *testing.T) {
	k, err := kernel.ByName("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(8), Options{})
	var se *diag.StageError
	if !errors.Is(err, diag.ErrTooLarge) || !errors.As(err, &se) || se.Stage != "dfg-build" {
		t.Fatalf("oversized block: %v, want a dfg-build ErrTooLarge", err)
	}
	if !strings.Contains(err.Error(), "96-node wall") {
		t.Errorf("wall error does not name the default 96-node wall: %v", err)
	}
}

// TestExactDeadline: the caller's context deadline is the search's only
// time bound, and its ErrCanceled keeps what the search established: the
// II, the decisions explored and the proved lower bound, with
// context.DeadlineExceeded in the chain. A deadline already past stops
// before the first II with nothing explored; GEMM's II 2 search takes
// far longer than 10 ms (6,149 decisions), so that deadline expires
// inside it and the branch-and-bound poll ends the compile there.
func TestExactDeadline(t *testing.T) {
	k, err := kernel.ByName("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		d         time.Duration
		want, not string
	}{
		{-time.Second, "at II 2 after 0 decisions; proved II ≥ 2", ""},
		{10 * time.Millisecond, " decisions; proved II ≥ 2", "after 0 decisions"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), c.d)
		_, err := CompileRequest(ctx, k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(accBlock), Options{})
		cancel()
		if !errors.Is(err, diag.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline %v: %v, want ErrCanceled wrapping context.DeadlineExceeded", c.d, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "at II 2 after ") || !strings.Contains(msg, c.want) || c.not != "" && strings.Contains(msg, c.not) {
			t.Errorf("deadline %v: %q, want it to name II 2 and %q, not %q", c.d, msg, c.want, c.not)
		}
	}
}

// TestDeterministicResults: two independent searches of the same
// instance return identical placements (the search has no hidden
// randomness or wall-clock dependence).
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
// kernel block within maxII, and the resource bound proves it: the
// mapper must report proved infeasibility, never success.
func TestProvedInfeasibleTinyFabric(t *testing.T) {
	k, err := kernel.ByName("MVT")
	if err != nil {
		t.Fatal(err)
	}
	// Block 3 MVT has more ops and memory accesses than one PE issues in
	// maxII cycles, so the resource bound alone exceeds maxII.
	fab, block := arch.DefaultFabric(1, 1), k.UniformBlock(3)
	d, err := k.BuildDFG(block)
	if err != nil {
		t.Fatal(err)
	}
	if mii, err := route.ResourceMII(d, fab, true); err != nil || mii <= maxII || len(d.Nodes) > 96 {
		t.Fatalf("MVT block 3 on 1x1: bound %d (%v) on %d nodes, want a bound above %d within the 96-node wall", mii, err, len(d.Nodes), maxII)
	}
	_, err = CompileRequest(context.Background(), k, fab, block, Options{})
	if err == nil {
		t.Fatalf("MVT block 3 mapped onto a 1x1 fabric at II <= %d", maxII)
	}
	if !errors.Is(err, diag.ErrProvedInfeasible) {
		t.Errorf("tiny-fabric failure %v, want proved infeasibility", err)
	}
}

// TestSummaryNamesTheCertificate: the one-line summary says whether the
// II is proved minimal, and by which certificate.
func TestSummaryNamesTheCertificate(t *testing.T) {
	k, err := kernel.ByName("MVT")
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{FlatResult: route.FlatResult{Kernel: k, Fabric: arch.DefaultFabric(4, 4), Block: []int{2, 2}, II: 3, Utilization: 0.5}}
	if got, want := r.Summary(), "MVT on 4x4 (exact): block [2 2], II 3 (upper bound), U = 50.0%"; got != want {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
	r.Optimality = Optimality{ProvedMinimal: true, Certificate: CertExhaustive}
	if got, want := r.Summary(), "MVT on 4x4 (exact): block [2 2], II 3 (proved minimal, certificate exhaustive), U = 50.0%"; got != want {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
}

// TestLowerBoundRefusals: a block the kernel cannot unroll, and memory
// operations on a fabric without a memory port, have no bound.
func TestLowerBoundRefusals(t *testing.T) {
	k, err := kernel.ByName("MVT")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LowerBound(k, arch.DefaultFabric(4, 4), []int{2}); err == nil || !strings.Contains(err.Error(), "block [2] has 1 dims, want 2") {
		t.Errorf("LowerBound of a 1-dim block: %v", err)
	}
	none := arch.DefaultFabric(4, 4)
	none.Mem = arch.MemNone
	if _, err := LowerBound(k, none, k.UniformBlock(2)); !errors.Is(err, diag.ErrMemPortInfeasible) {
		t.Errorf("LowerBound on a fabric without memory: %v, want ErrMemPortInfeasible", err)
	}
}
