package exp

import (
	"slices"
	"strings"
	"testing"
	"time"

	"himap/internal/arch"
	"himap/internal/kernel"
)

func TestTableIContainsAllColumnsAndKernels(t *testing.T) {
	s := TableI()
	for _, want := range []string{
		"No inter-iteration dependency",
		"Dim = 1", "Dim = 2", "Dim = 3", "Dim = 4",
		"gemm", "bicg", "floyd_warshall", "ttm", "doitgen",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTableIIMeasuredCounts(t *testing.T) {
	rows, err := TableII(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table II has %d rows, want 8", len(rows))
	}
	measured := map[string]int{}
	for _, r := range rows {
		measured[r.Kernel] = r.MaxUnique
		if r.PaperMax == 0 {
			t.Errorf("%s: missing paper value", r.Kernel)
		}
	}
	// Exact matches for the uniform-boundary kernels.
	for _, k := range []string{"ADI", "ATAX", "BICG", "MVT", "GEMM", "SYRK"} {
		if measured[k] != PaperUnique[k] {
			t.Errorf("%s: measured %d, paper %d", k, measured[k], PaperUnique[k])
		}
	}
	s := FormatTableII(rows)
	if !strings.Contains(s, "GEMM") || !strings.Contains(s, "27") {
		t.Errorf("formatting broken:\n%s", s)
	}
}

func TestFig7SmallSweep(t *testing.T) {
	pts, err := Fig7(Config{
		Sizes:          []int{4},
		Kernels:        []*kernel.Kernel{kernel.GEMM()},
		BaselineBudget: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	p := pts[0]
	if p.HiMapU < 0.99 {
		t.Errorf("HiMap GEMM 4x4 U = %v", p.HiMapU)
	}
	if p.BHCU <= 0 {
		t.Fatalf("baseline failed: %+v", p)
	}
	// The headline comparisons of Fig. 7: HiMap wins on all three panels.
	if p.HiMapU <= p.BHCU {
		t.Errorf("utilization: HiMap %v <= BHC %v", p.HiMapU, p.BHCU)
	}
	if p.HiMapMOPS <= p.BHCMOPS {
		t.Errorf("performance: HiMap %v <= BHC %v", p.HiMapMOPS, p.BHCMOPS)
	}
	if p.HiMapEff <= p.BHCEff {
		t.Errorf("efficiency: HiMap %v <= BHC %v", p.HiMapEff, p.BHCEff)
	}
	s := FormatFig7(pts)
	if !strings.Contains(s, "GEMM") || !strings.Contains(s, "paper: 2.8x") {
		t.Errorf("format:\n%s", s)
	}
}

func TestFig8SmallSweep(t *testing.T) {
	pts, err := Fig8(Config{
		Kernels:        []*kernel.Kernel{kernel.MVT()},
		Sizes:          []int{2, 4, 8},
		BaselineBudget: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if !p.HiMapOK {
			t.Errorf("HiMap failed at b=%d", p.B)
		}
	}
	// At b=8 MVT's DFG is 8x8x(6 ops + loads/stores) > 400: the baseline
	// hits its wall exactly as in Fig. 8 ("BHC fails ... beyond the block
	// size of 8" — our spec crosses slightly earlier; the wall behaviour
	// is what matters).
	last := pts[len(pts)-1]
	if last.BHCOK {
		t.Logf("baseline still succeeded at b=8 (U wall not yet hit)")
	} else if last.BHCNote == "" {
		t.Error("baseline failure must carry a note")
	}
	s := FormatFig8(pts)
	if !strings.Contains(s, "MVT") {
		t.Errorf("format:\n%s", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(4, 8)
	if !slices.Equal(c.Sizes, []int{4, 8}) || len(c.Kernels) != 8 || c.BaselineBudget != 20*time.Second {
		t.Errorf("defaults: %+v", c)
	}
	c.Progress("an unset Progress takes rows too")
	if c = (Config{Sizes: []int{3}}).withDefaults(4); !slices.Equal(c.Sizes, []int{3}) {
		t.Errorf("Sizes %v replaced by the figure's default", c.Sizes)
	}
	for _, tc := range []struct {
		k          *kernel.Kernel
		size, want int
	}{{kernel.MVT(), 64, 64}, {kernel.GEMM(), 64, 16}, {kernel.GEMM(), 8, 8}, {kernel.TTM(), 64, 8}} {
		if got := innerBlock(tc.k, tc.size); got != tc.want {
			t.Errorf("%s at %d: inner block %d, want %d", tc.k.Name, tc.size, got, tc.want)
		}
	}
}

func TestEnvelopeSmall(t *testing.T) {
	var rows []string
	pts, err := Envelope(Config{Sizes: []int{4}, Workers: 2, Progress: func(row string) { rows = append(rows, row) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Utilization < 0.6 {
			t.Errorf("%s: U = %v", p.Kernel, p.Utilization)
		}
	}
	if s := FormatEnvelope(pts); !strings.Contains(s, "GEMM") || strings.Contains(s, "compile") {
		t.Errorf("format broken (or carries compile times):\n%s", s)
	}
	if len(rows) != 8 {
		t.Errorf("%d progress rows, want one per kernel", len(rows))
	}
}

// TestExploreDeterministicAndTyped pins the sweep contract: two runs of
// the same exploration (at different worker counts, so completion order
// differs) produce identical points in identical order, every point is
// either a priced success or carries a typed failure class, and the
// per-kernel ranking is ordered as documented.
func TestExploreDeterministicAndTyped(t *testing.T) {
	cfg := ExploreConfig{
		Kernels: []*kernel.Kernel{kernel.MVT(), kernel.ATAX()},
		Fabrics: arch.ExploreFabrics(4, 4),
	}
	a := Explore(ExploreConfig{Kernels: cfg.Kernels, Fabrics: cfg.Fabrics, Workers: 1})
	b := Explore(ExploreConfig{Kernels: cfg.Kernels, Fabrics: cfg.Fabrics, Workers: 8})
	if len(a) != len(b) || len(a) != 2*len(cfg.Fabrics) {
		t.Fatalf("point counts: %d vs %d, want %d", len(a), len(b), 2*len(cfg.Fabrics))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x != y {
			t.Errorf("point %d differs across runs:\n%+v\n%+v", i, x, y)
		}
	}
	seenOK := false
	for i, p := range a {
		if p.OK == (p.Fail != "") {
			t.Errorf("point %d: OK=%v with fail class %q", i, p.OK, p.Fail)
		}
		if p.OK {
			seenOK = true
			if p.MOPS <= 0 || p.PowerMW <= 0 || p.Eff <= 0 || p.IIB < 1 {
				t.Errorf("point %d: unpriced success %+v", i, p)
			}
		}
		if i > 0 && a[i-1].Kernel == p.Kernel {
			prev := a[i-1]
			if !prev.OK && p.OK {
				t.Errorf("point %d: success ranked after failure", i)
			}
			if prev.OK && p.OK && prev.Eff < p.Eff {
				t.Errorf("point %d: efficiency ranking inverted (%v after %v)", i, p.Eff, prev.Eff)
			}
		}
	}
	if !seenOK {
		t.Error("no fabric candidate succeeded — sweep degenerate")
	}
	if a[0].Kernel != "MVT" || a[len(a)-1].Kernel != "ATAX" {
		t.Errorf("kernels reordered: first %s last %s", a[0].Kernel, a[len(a)-1].Kernel)
	}
}
