package kernel

import (
	"errors"
	"math"
	"testing"

	"himap/internal/diag"
)

// TestUnrollWall holds the unroll wall: UnrollOps saturates instead of
// wrapping, the largest committed unroll (TTM's 64x64 envelope block)
// sits on the wall, and BuildDFG refuses a block past it, pinned extents
// included, with diag.ErrTooLarge before building anything.
func TestUnrollWall(t *testing.T) {
	ttm := TTM()
	for _, c := range []struct {
		block []int
		want  int
	}{
		{[]int{2, 3, 4, 5}, 120 * len(ttm.Body)},
		{[]int{64, 8, 64, 8}, maxUnroll},
		{[]int{1 << 40, 1 << 40, 1, 1}, math.MaxInt}, // the plain product wraps to 0
		{[]int{math.MaxInt, 2, 1, 1}, math.MaxInt},
	} {
		if got := ttm.UnrollOps(c.block); got != c.want {
			t.Errorf("UnrollOps(%v) = %d, want %d", c.block, got, c.want)
		}
	}
	pinned := GEMM()
	pinned.FixedBlock = []int{1 << 40, 1 << 40}
	for _, c := range []struct {
		k     *Kernel
		block []int
	}{
		{ttm, []int{64, 8, 64, 9}},
		{pinned, []int{1 << 40, 1 << 40, 2}},
	} {
		if _, err := c.k.BuildDFG(c.block); !errors.Is(err, diag.ErrTooLarge) {
			t.Errorf("%s BuildDFG(%v): %v, want ErrTooLarge", c.k.Name, c.block, err)
		}
	}
}
