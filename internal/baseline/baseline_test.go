package baseline

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/route"
	"himap/internal/sim"
)

func TestBaselineMapsAndValidates(t *testing.T) {
	cases := []struct {
		k     *kernel.Kernel
		cgra  arch.Fabric
		block []int
	}{
		{kernel.GEMM(), arch.DefaultFabric(2, 2), []int{2, 2, 2}},
		{kernel.BICG(), arch.DefaultFabric(4, 4), []int{4, 4}},
		{kernel.ADI(), arch.DefaultFabric(4, 4), []int{4, 4}},
	}
	for _, c := range cases {
		res, err := CompileRequest(context.Background(), c.k, c.cgra, c.block, Options{Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", c.k.Name, err)
			continue
		}
		if err := res.Config.Validate(); err != nil {
			t.Errorf("%s: config: %v", c.k.Name, err)
		}
		if err := sim.Validate(res.Config, c.k, c.block, 2, 77); err != nil {
			t.Errorf("%s: sim: %v", c.k.Name, err)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Errorf("%s: U = %v", c.k.Name, res.Utilization)
		}
	}
}

func TestBaselineNodeWall(t *testing.T) {
	// GEMM at b=8 has 8^3 iterations × 4 ops ≈ 2k nodes: over the wall.
	k := kernel.GEMM()
	_, err := CompileRequest(context.Background(), k, arch.DefaultFabric(8, 8), []int{8, 8, 8}, Options{Seed: 1})
	var se *diag.StageError
	if !errors.Is(err, diag.ErrTooLarge) || !errors.As(err, &se) || se.Stage != "dfg-build" {
		t.Fatalf("expected a dfg-build ErrTooLarge, got %v", err)
	}
	if !strings.Contains(err.Error(), "400-node wall") {
		t.Errorf("wall error does not name the default 400-node wall: %v", err)
	}
}

// TestBaselineTimeout: the caller's context deadline is the mapper's
// only time bound. One already past stops the compile before the first
// II attempt, one that expires mid-anneal at the next poll; both end
// with ErrCanceled and context.DeadlineExceeded in the chain.
func TestBaselineTimeout(t *testing.T) {
	k := kernel.MVT()
	for _, d := range []time.Duration{-time.Second, time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		_, err := CompileRequest(ctx, k, arch.DefaultFabric(4, 4), []int{6, 6}, Options{Seed: 1})
		cancel()
		if !errors.Is(err, diag.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("deadline %v: %v, want ErrCanceled wrapping context.DeadlineExceeded", d, err)
		}
	}
}

func TestLargestFeasibleBlock(t *testing.T) {
	k := kernel.GEMM()
	b := LargestFeasibleBlock(k, 400, 64)
	if b < 2 {
		t.Fatalf("LargestFeasibleBlock = %d", b)
	}
	d, err := k.BuildDFG(k.UniformBlock(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) > 400 {
		t.Errorf("block %d yields %d nodes > 400", b, len(d.Nodes))
	}
	d2, err := k.BuildDFG(k.UniformBlock(b + 1))
	if err == nil && len(d2.Nodes) <= 400 {
		t.Errorf("block %d+1 still fits (%d nodes); not the largest", b, len(d2.Nodes))
	}
}

func TestBaselineUtilizationBelowHiMapEnvelope(t *testing.T) {
	// The central claim of Fig. 7: conventional mapping leaves utilization
	// on the table even where it succeeds.
	k := kernel.BICG()
	res, err := CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), []int{4, 4}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization >= 1.0 {
		t.Errorf("baseline at %v utilization; expected below the HiMap envelope", res.Utilization)
	}
}

func TestBaselineDeterministicWithSeed(t *testing.T) {
	k := kernel.ADI()
	a, err := CompileRequest(context.Background(), k, arch.DefaultFabric(2, 2), []int{2, 2}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileRequest(context.Background(), k, arch.DefaultFabric(2, 2), []int{2, 2}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.II != b.II || a.Utilization != b.Utilization {
		t.Errorf("same seed, different results: II %d vs %d", a.II, b.II)
	}
}

func TestBaselineIIAtLeastResourceMinimum(t *testing.T) {
	k := kernel.GEMM()
	block := []int{2, 2, 2}
	res, err := CompileRequest(context.Background(), k, arch.DefaultFabric(2, 2), block, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := k.BuildDFG(block)
	nfu := 0
	for _, n := range d.Nodes {
		if n.Kind.IsCompute() || n.Kind.String() == "route" {
			nfu++
		}
	}
	minII := (nfu + 3) / 4
	if res.II < minII {
		t.Errorf("II %d below resource minimum %d", res.II, minII)
	}
}

// pollCtx counts Err polls and reports context.Canceled from its flipAt-th
// poll on (0 = never).
type pollCtx struct {
	context.Context
	polls, flipAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.flipAt > 0 && c.polls >= c.flipAt {
		return context.Canceled
	}
	return nil
}

// TestAnnealPollsEveryStride pins the anneal's cancellation polls: one
// per 4096 moves beyond the seeding pass's (one per placement try), a
// flip between two of them stops the chain at that poll, and a flip in
// the seeding pass stops it before its first move.
func TestAnnealPollsEveryStride(t *testing.T) {
	k, err := kernel.ByName("MVT")
	if err != nil {
		t.Fatal(err)
	}
	d, err := k.BuildDFG(k.UniformBlock(2))
	if err != nil {
		t.Fatal(err)
	}
	fab := arch.DefaultFabric(4, 4)
	run := func(moves, flipAt int) (int, bool) {
		ctx := &pollCtx{Context: context.Background(), flipAt: flipAt}
		_, ok, _ := anneal(ctx, d, fab, 2, moves, rand.New(rand.NewSource(1)))
		return ctx.polls, ok
	}
	seeding, _ := run(0, 0)
	const strides = 16
	if polls, _ := run(strides*4096, 0); polls != seeding+strides {
		t.Fatalf("%d moves polled %d times after the seeding pass's %d, want %d", strides*4096, polls-seeding, seeding, strides)
	}
	if polls, ok := run(strides*4096, seeding+strides/2); ok || polls != seeding+strides/2 {
		t.Errorf("flip at anneal poll %d: ok=%v after %d polls, want a canceled chain that stops at the flip", strides/2, ok, polls)
	}
	if polls, ok := run(strides*4096, 1); ok || polls != len(d.Nodes)+1 {
		t.Errorf("flip at the first seeding poll: ok=%v after %d polls, want a canceled chain after one poll per node and one anneal poll (%d)", ok, polls, len(d.Nodes)+1)
	}
}

// TestLargestFeasibleBlockFloor: when even the smallest block exceeds
// the node wall, the answer is the kernel's minimum block.
func TestLargestFeasibleBlockFloor(t *testing.T) {
	k := kernel.GEMM()
	if b := LargestFeasibleBlock(k, 1, 8); b != k.MinBlock {
		t.Errorf("LargestFeasibleBlock under a 1-node wall = %d, want the minimum block %d", b, k.MinBlock)
	}
}

// TestAnnealRefusesCycle: a DFG with a dependence cycle has no schedule,
// so the anneal reports no placement instead of annealing one.
func TestAnnealRefusesCycle(t *testing.T) {
	d := ir.NewDFG(nil)
	a, b := d.AddNode(&ir.Node{Kind: ir.OpRoute}), d.AddNode(&ir.Node{Kind: ir.OpRoute})
	d.AddEdge(a.ID, b.ID, 0)
	d.AddEdge(b.ID, a.ID, 0)
	if pl, ok, _ := anneal(context.Background(), d, arch.DefaultFabric(2, 2), 2, 4096, rand.New(rand.NewSource(1))); ok || pl != nil {
		t.Errorf("anneal of a cyclic DFG = %v, %v, want no placement", pl, ok)
	}
}

// TestSummaryNamesTheBackend: the one-line summary of a conventional
// mapping says which mapper made it.
func TestSummaryNamesTheBackend(t *testing.T) {
	r := &Result{FlatResult: route.FlatResult{Kernel: kernel.MVT(), Fabric: arch.DefaultFabric(4, 4), Block: []int{4, 4}, II: 5, Utilization: 0.25}}
	if got, want := r.Summary(), "MVT on 4x4 (baseline): block [4 4], II 5, U = 25.0%"; got != want {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
}
