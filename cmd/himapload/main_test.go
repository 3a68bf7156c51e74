package main

import "testing"

// TestPercentileNearestRank holds percentile to the nearest-rank
// definition: the p-quantile of n ascending samples is the
// ceil(p·n)-th smallest, computed here in integers.
func TestPercentileNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 10, 100} {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		for _, pct := range []int{50, 90, 99} {
			rank := (pct*n + 99) / 100
			if got := percentile(sorted, float64(pct)/100); got != float64(rank) {
				t.Errorf("n=%d p=0.%d: got sample %v, want %d", n, pct, got, rank)
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
}
