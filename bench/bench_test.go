package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v, want the minimum 1", got)
	}
	if got := quantile(xs, 0.9); !near(got, 4.6) {
		t.Errorf("q0.9 = %v, want 4.6", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

// The acceptance procedure computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7, 3.3, 2.8}, 2.7, 3.1},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestTopPercentile(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, p := topPercentile(xs, 99); p != 99 || !near(v, 1979.01) {
		t.Errorf("2000 samples, limit 99: p%v = %v, want p99 = 1979.01", p, v)
	}
	if _, p := topPercentile(xs[:500], 99); p != 95 {
		t.Errorf("500 samples leave only 5 beyond p99: got p%v, want p95", p)
	}
	if _, p := topPercentile(xs[:150], 90); p != 90 {
		t.Errorf("150 samples, limit 90: got p%v, want p90", p)
	}
	if v, p := topPercentile(xs[:9], 99); p != 50 || v != 4 {
		t.Errorf("9 samples: p%v = %v, want the median 4", p, v)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 180}}, 60},
		{"overlapping waves count once", []interval{{110, 150}, {130, 170}}, 40},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out is clipped", []interval{{50, 120}, {190, 300}}, 70},
		{"unsorted", []interval{{150, 160}, {110, 120}}, 80},
		{"fully covered", []interval{{0, 500}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestServeDrawIsSeededOrderOfFixedMultiset(t *testing.T) {
	a, b, c := serveDraw(144, serveRequests, 7), serveDraw(144, serveRequests, 7), serveDraw(144, serveRequests, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same order")
	}
	count := func(draw []int) []int {
		n := make([]int, 144)
		for _, k := range draw {
			n[k]++
		}
		return n
	}
	ca, cc := count(a), count(c)
	if !reflect.DeepEqual(ca, cc) {
		t.Fatal("the request multiset depends on the seed")
	}
	for k, n := range ca {
		if n < 1 {
			t.Errorf("key %d is never requested", k)
		}
		if k > 0 && n > ca[k-1] {
			t.Errorf("popularity not monotone in rank: key %d has %d, key %d has %d", k-1, ca[k-1], k, n)
		}
	}
	if got := len(a); got < serveRequests*95/100 || got > serveRequests*105/100 {
		t.Errorf("list has %d requests, want about %d", got, serveRequests)
	}
}

func TestServePopulationIsFixed(t *testing.T) {
	a, b := servePopulation(false), servePopulation(false)
	if len(a) != 144 {
		t.Fatalf("population has %d keys, want 144", len(a))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].name != b[i].name {
			t.Fatalf("population order differs between calls at %d", i)
		}
		seen[string(a[i].body)] = true
	}
	if len(seen) != 144 {
		t.Errorf("only %d distinct request bodies", len(seen))
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "t", better: "lower", bound: 0.10}
	higher := metricDef{name: "r", better: "higher", bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(115), "regressed"},
		{lower, steady(100), steady(50), "ok"},
		{higher, steady(100), steady(85), "regressed"},
		{higher, steady(100), steady(130), "ok"},
		{lower, []float64{80, 90, 100, 110, 120}, steady(100), "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s is better, %v -> %v: %s, want %s", c.d.better, median(c.a), median(c.b), got, c.want)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the program reports. They must say the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workloads.go has %q / %q",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in metrics.go (must be in (0, 0.25])", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		names[d.name] = true
	}
}

// TestSmokeEveryWorkload runs each workload once on its smallest inputs,
// untraced and traced, and checks that it is correct and reports every
// metric it promises.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles real kernels")
	}
	cfg := runConfig{seed: 3, seconds: 0, tiny: true, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg.trace = trace
			rep := runWorkload(w, cfg)
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d failed: %v", w.name, trace, rep.failed, rep.attempted, rep.failures)
			}
			if code := emit(rep, cfg); code != 0 {
				t.Errorf("%s trace=%t: exit code %d", w.name, trace, code)
			}
			if !trace {
				for _, d := range endToEnd {
					if v := rep.metrics[d.name]; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, v)
					}
				}
				continue
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.name] = true
			}
			var stray []string
			for k := range rep.metrics {
				if !known[k] {
					stray = append(stray, k)
				}
			}
			sort.Strings(stray)
			if len(stray) > 0 {
				t.Errorf("%s: traced run reports metrics missing from the per-layer table: %v", w.name, stray)
			}
			if _, err := os.Stat(cfg.outPath("trace-" + w.name + ".json")); err != nil {
				t.Errorf("%s: no trace file: %v", w.name, err)
			}
		}
	}
}
