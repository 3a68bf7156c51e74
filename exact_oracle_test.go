package himap_test

import (
	"context"
	"testing"

	"himap"
)

// TestHiMapRespectsExactLowerBound regression-tests the heuristic flow
// against the exact solver's universal static bound: for every
// evaluation kernel, HiMap's achieved II at its own derived block can
// never undercut ExactLowerBound for that (kernel, block, fabric) —
// if it ever does, either the bound or the mapper is unsound.
func TestHiMapRespectsExactLowerBound(t *testing.T) {
	fab := himap.DefaultFabric(4, 4)
	for _, k := range himap.EvaluationKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			res, err := himap.CompileRequest(context.Background(), himap.Request{Kernel: k, Fabric: fab})
			if err != nil {
				t.Fatalf("CompileRequest(himap): %v", err)
			}
			lb, err := himap.ExactLowerBound(k, fab, res.Block)
			if err != nil {
				t.Fatalf("ExactLowerBound: %v", err)
			}
			if res.Config.II < lb {
				t.Errorf("HiMap II %d (block %v) undercuts the exact lower bound %d",
					res.Config.II, res.Block, lb)
			}
		})
	}
}

// TestConventionalRespectsProvedMinimum pins the oracle relation on one
// instance both backends share: the SA baseline can match but never
// beat an exact II that carries a proved-minimal certificate.
func TestConventionalRespectsProvedMinimum(t *testing.T) {
	k := himap.KernelMVT()
	fab := himap.DefaultFabric(4, 4)
	block := k.UniformBlock(2)

	eres, err := himap.CompileRequest(context.Background(), himap.Request{
		Kernel: k, Fabric: fab, Mapper: himap.MapperExact, Block: block,
	})
	if err != nil {
		t.Fatalf("CompileRequest(exact): %v", err)
	}
	if eres.Backend != string(himap.MapperExact) {
		t.Errorf("Backend = %q, want %q", eres.Backend, himap.MapperExact)
	}
	if eres.Optimality == nil || !eres.Optimality.ProvedMinimal {
		t.Fatalf("MVT 4x4 block 2 not proved minimal: %+v", eres.Optimality)
	}
	if eres.Exact == nil || eres.Exact.II != eres.Config.II {
		t.Errorf("Result.Exact inconsistent with Config: %+v vs II %d", eres.Exact, eres.Config.II)
	}

	cres, err := himap.CompileRequest(context.Background(), himap.Request{
		Kernel: k, Fabric: fab, Mapper: himap.MapperConventional, Block: block,
		Baseline: himap.BaselineOptions{Seed: 1},
	})
	if err != nil {
		t.Fatalf("CompileRequest(conventional): %v", err)
	}
	if cres.Config.II < eres.Config.II {
		t.Errorf("conventional II %d beats proved-minimal exact II %d — certificate unsound",
			cres.Config.II, eres.Config.II)
	}
}
