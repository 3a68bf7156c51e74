package kernel_test

import (
	"testing"

	"himap/internal/himap"
	"himap/internal/kernel"
	"himap/internal/systolic"
)

// uniqueClasses counts the unique iteration classes a compile computes
// for kernel k at block (himap.IdentifyUnique over the ISDG placed under
// the top-ranked systolic scheme).
func uniqueClasses(t *testing.T, k *kernel.Kernel, block []int) int {
	t.Helper()
	_, g, err := k.BuildISDG(block)
	if err != nil {
		t.Fatalf("%s %v: %v", k.Name, block, err)
	}
	cands := systolic.SearchN(k.DistanceVectors(), block, 0, 1)
	if len(cands) == 0 {
		t.Fatalf("%s %v: no systolic scheme", k.Name, block)
	}
	classes, _ := himap.IdentifyUnique(g, himap.PlaceClusters(g, cands[0].Mapping))
	return len(classes)
}

// TestStructuralClassesMatchTableII: Table II's unique iterations at
// block 4 (3 for the 4-D kernels): 2-D kernels with dependences along
// both dimensions have 3x3 = 9 (first, middle, last per dimension), ADI
// (inner-dimension dependences only) 3, GEMM, SYRK, TTM and DOITGEN
// 3^3 = 27 (TTM's and DOITGEN's fourth dimension is uniform).
func TestStructuralClassesMatchTableII(t *testing.T) {
	want := map[string]int{"ADI": 3, "ATAX": 9, "BICG": 9, "MVT": 9, "GEMM": 27, "SYRK": 27, "TTM": 27, "DOITGEN": 27}
	for _, k := range append(kernel.Evaluation(), kernel.DOITGEN()) {
		if k.Name == "FW" {
			continue // diagonal classes; saturation is its test
		}
		n := 4
		if k.Dim >= 4 {
			n = 3
		}
		if got := uniqueClasses(t, k, k.UniformBlock(n)); got != want[k.Name] {
			t.Errorf("%s b=%d: %d unique classes, want %d", k.Name, n, got, want[k.Name])
		}
	}
}

// TestStructuralClassesSaturate: the class count stops growing with the
// block (§II's scalability argument): block 6 against 7 for every kernel
// up to 3-D, FW's diagonal classes included, and 3 against 4 for TTM.
func TestStructuralClassesSaturate(t *testing.T) {
	for _, k := range kernel.Evaluation() {
		lo, hi := 6, 7
		if k.Dim > 3 {
			lo, hi = 3, 4
		}
		if c1, c2 := uniqueClasses(t, k, k.UniformBlock(lo)), uniqueClasses(t, k, k.UniformBlock(hi)); c1 != c2 {
			t.Errorf("%s: classes not saturated: %d at b=%d, %d at b=%d", k.Name, c1, lo, c2, hi)
		}
	}
}
