package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) does, so the
// spread -compare reports is the one the acceptance procedure computes.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// topPercentile returns the highest of the percentiles 99.9, 99, 95, 90
// that is at most limit and still has at least ten samples beyond it,
// and which one that is. With too few samples it degrades to the median.
func topPercentile(xs []float64, limit float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range []float64{99.9, 99, 95, 90} {
		if p <= limit && n*(100-p)/100 >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return median(xs), 50
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sumOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sumOf(xs) / float64(len(xs))
}

// foldBest lowers best[i] to row[i] wherever row[i] is a faster time; 0
// means "no sample" on either side.
func foldBest(best, row []float64) {
	for i, v := range row {
		if v > 0 && (best[i] == 0 || v < best[i]) {
			best[i] = v
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is one half-open time span, in nanoseconds from the trace
// epoch.
type interval struct{ start, end int64 }

// selfTime is a parent span's duration minus the part of it that its
// child spans cover. Children may overlap each other (parallel attempt
// waves) and may stick out of the parent; only covered time inside the
// parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, edge := int64(0), parent.start
	for _, c := range cs {
		if c.start > edge {
			edge = c.start
		}
		if c.end > edge {
			covered += c.end - edge
			edge = c.end
		}
	}
	return parent.end - parent.start - covered
}
