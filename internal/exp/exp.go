// Package exp regenerates every table and figure of the paper's
// evaluation (§VI): Table I (kernel categorization), Table II (kernel
// characteristics / max unique iterations), Figure 7 (utilization,
// performance, and power efficiency of BHC vs HiMap across CGRA sizes),
// and Figure 8 (compilation time vs block size). cmd/experiments is its
// driver; EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"himap/internal/arch"
	"himap/internal/baseline"
	"himap/internal/himap"
	"himap/internal/kernel"
	"himap/internal/par"
	"himap/internal/power"
)

// Config tunes the experiment harness.
type Config struct {
	Sizes            []int // CGRA sizes (c for c×c); default 4, 8, 16, 32
	Kernels          []*kernel.Kernel
	BaselineBudget   time.Duration // wall-clock budget per baseline point
	BaselineMaxNodes int           // the baseline's DFG scalability wall
	InnerBlock       int           // HiMap's b3.. extent (0: per-kernel default)
	Seed             int64
	// Workers bounds how many (kernel, size) points are measured
	// concurrently. Results are always collected in the sequential point
	// order regardless of the worker count; each point's compile runs
	// single-threaded so points — not compiles — are the unit of
	// parallelism. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when set, receives each Fig-7 point as it is measured.
	// With Workers > 1 points may arrive out of order; calls are
	// serialized.
	Progress func(Fig7Point)
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4, 8, 16, 32}
	}
	if len(c.Kernels) == 0 {
		c.Kernels = kernel.Evaluation()
	}
	if c.BaselineBudget == 0 {
		c.BaselineBudget = 20 * time.Second
	}
	if c.BaselineMaxNodes == 0 {
		c.BaselineMaxNodes = 400
	}
	return c
}

// sweep measures every kernel × axis point, workers points at a time, and
// returns the results in kernel-major order — or the first error in that
// order.
func sweep[T, P any](workers int, kernels []*kernel.Kernel, axis []T, measure func(*kernel.Kernel, T) (P, error)) ([]P, error) {
	type cell struct {
		p   P
		err error
	}
	n := len(axis)
	cells := par.Map(par.Workers(workers), len(kernels)*n, func(i int) cell {
		p, err := measure(kernels[i/n], axis[i%n])
		return cell{p, err}
	})
	out := make([]P, len(cells))
	for i, c := range cells {
		if c.err != nil {
			return nil, c.err
		}
		out[i] = c.p
	}
	return out, nil
}

// ---------------------------------------------------------------- Table I

// TableI renders the loop-kernel categorization.
func TableI() string {
	cat := kernel.Categorize(kernel.Catalog())
	var b strings.Builder
	b.WriteString("Table I: loop kernel categorization\n")
	cols := []struct{ key, title string }{
		{"no-dep", "No inter-iteration dependency (Dim 1/2/3)"},
		{"dep-dim1", "With dependency, Dim = 1"},
		{"dep-dim2", "With dependency, Dim = 2"},
		{"dep-dim3", "With dependency, Dim = 3"},
		{"dep-dim4", "With dependency, Dim = 4"},
	}
	for _, col := range cols {
		infos := cat[col.key]
		fmt.Fprintf(&b, "\n%s (%d kernels):\n", col.title, len(infos))
		bySuite := map[string][]string{}
		for _, in := range infos {
			bySuite[in.Suite] = append(bySuite[in.Suite], in.Name)
		}
		suites := make([]string, 0, len(bySuite))
		for s := range bySuite {
			suites = append(suites, s)
		}
		sort.Strings(suites)
		for _, s := range suites {
			fmt.Fprintf(&b, "  %-10s %s\n", s+":", strings.Join(bySuite[s], ", "))
		}
	}
	b.WriteString("\nHiMap targets the multi-dimensional (Dim > 1) kernels with inter-iteration dependencies.\n")
	return b.String()
}

// --------------------------------------------------------------- Table II

// PaperUnique holds Table II's published "max unique iterations".
var PaperUnique = map[string]int{
	"ADI": 3, "ATAX": 9, "BICG": 9, "MVT": 9,
	"GEMM": 27, "SYRK": 27, "FW": 34, "TTM": 45,
}

// TableIIRow is one measured kernel characteristic.
type TableIIRow struct {
	Kernel    string
	Dim       int
	Desc      string
	MaxUnique int // measured on this implementation
	PaperMax  int
}

// TableII compiles every kernel on a c×c array and reports the measured
// unique-iteration counts next to the paper's.
func TableII(size int, cfg Config) ([]TableIIRow, error) {
	cfg = cfg.withDefaults()
	return sweep(cfg.Workers, cfg.Kernels, []int{size}, func(k *kernel.Kernel, size int) (TableIIRow, error) {
		res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), himap.Options{InnerBlock: cfg.InnerBlock, Workers: 1})
		if err != nil {
			return TableIIRow{}, fmt.Errorf("exp: TableII %s: %v", k.Name, err)
		}
		return TableIIRow{
			Kernel:    k.Name,
			Dim:       k.Dim,
			Desc:      k.Desc,
			MaxUnique: res.UniqueIters,
			PaperMax:  PaperUnique[k.Name],
		}, nil
	})
}

// FormatTableII renders the rows.
func FormatTableII(rows []TableIIRow) string {
	var b strings.Builder
	b.WriteString("Table II: characteristics of the multi-dimensional kernels\n")
	fmt.Fprintf(&b, "%-8s %-4s %-48s %10s %10s\n", "Kernel", "Dim", "Description", "unique", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-4d %-48s %10d %10d\n", r.Kernel, r.Dim, r.Desc, r.MaxUnique, r.PaperMax)
	}
	return b.String()
}

// ----------------------------------------------------------------- Fig 7

// Fig7Point is one (kernel, CGRA size) comparison of Figure 7's three
// panels: utilization, performance (MOPS), power efficiency (MOPS/mW).
type Fig7Point struct {
	Kernel string
	Size   int

	HiMapU, HiMapMOPS, HiMapEff float64
	HiMapBlock                  []int
	HiMapTime                   time.Duration

	BHCU, BHCMOPS, BHCEff float64
	BHCBlock              []int
	BHCTime               time.Duration
	BHCNote               string // "", "block capped by node wall", "timeout/shrunk", "failed"
}

// Fig7 runs the utilization / performance / power-efficiency comparison.
// Points are measured Workers at a time but reported in sequential
// (kernel-major, size-minor) order.
func Fig7(cfg Config) ([]Fig7Point, error) {
	cfg = cfg.withDefaults()
	model := power.Default40nm()
	var progressMu sync.Mutex
	return sweep(cfg.Workers, cfg.Kernels, cfg.Sizes, func(k *kernel.Kernel, size int) (Fig7Point, error) {
		p := Fig7Point{Kernel: k.Name, Size: size}
		res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), himap.Options{InnerBlock: cfg.InnerBlock, Workers: 1})
		if err != nil {
			return p, fmt.Errorf("exp: Fig7 HiMap %s %dx%d: %v", k.Name, size, size, err)
		}
		p.HiMapU = res.Utilization
		p.HiMapMOPS = model.PerformanceMOPS(res.Config)
		p.HiMapEff = model.EfficiencyMOPSPerMW(res.Config)
		p.HiMapBlock = res.Block
		p.HiMapTime = res.Stats.Total

		bres, note := runBaselineBestEffort(k, size, cfg)
		p.BHCNote = note
		if bres != nil {
			p.BHCU = bres.Utilization
			p.BHCMOPS = model.PerformanceMOPS(bres.Config)
			p.BHCEff = model.EfficiencyMOPSPerMW(bres.Config)
			p.BHCBlock = bres.Block
			p.BHCTime = bres.Time
		}
		if cfg.Progress != nil {
			progressMu.Lock()
			cfg.Progress(p)
			progressMu.Unlock()
		}
		return p, nil
	})
}

// runBaselineBestEffort drives the conventional mapper the way §VI
// describes users driving BHC: the largest block whose DFG fits under the
// node wall, shrinking when the time budget cannot close a mapping.
func runBaselineBestEffort(k *kernel.Kernel, size int, cfg Config) (*baseline.Result, string) {
	b := baseline.LargestFeasibleBlock(k, cfg.BaselineMaxNodes, size)
	note := ""
	if b < size {
		note = "block capped by node wall"
	}
	deadline := time.Now().Add(cfg.BaselineBudget)
	for ; b >= k.MinBlock; b-- {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		res, err := baseline.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), k.UniformBlock(b),
			baseline.Options{
				MaxNodes:   cfg.BaselineMaxNodes,
				Seed:       cfg.Seed,
				TimeBudget: remaining,
			})
		if err == nil {
			return res, note
		}
		var tooLarge baseline.ErrTooLarge
		if errors.As(err, &tooLarge) {
			continue
		}
		note = "timeout/shrunk"
	}
	return nil, "failed"
}

// FormatFig7 renders the comparison as the three panels of Figure 7.
func FormatFig7(points []Fig7Point) string {
	var b strings.Builder
	b.WriteString("Figure 7: BHC vs HiMap across CGRA sizes\n")
	fmt.Fprintf(&b, "%-8s %-7s | %7s %7s | %12s %12s | %9s %9s | %s\n",
		"Kernel", "CGRA", "U(BHC)", "U(HiM)", "MOPS(BHC)", "MOPS(HiM)", "Eff(BHC)", "Eff(HiM)", "note")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %-7s | %6.1f%% %6.1f%% | %12.0f %12.0f | %9.1f %9.1f | %s\n",
			p.Kernel, fmt.Sprintf("%dx%d", p.Size, p.Size),
			p.BHCU*100, p.HiMapU*100,
			p.BHCMOPS, p.HiMapMOPS,
			p.BHCEff, p.HiMapEff, p.BHCNote)
	}
	// Aggregates quoted in the paper: 2.8x utilization, 17.3x performance,
	// 5x power efficiency.
	var ug, pg, eg float64
	n := 0
	for _, p := range points {
		if p.BHCU > 0 {
			ug += p.HiMapU / p.BHCU
			pg += p.HiMapMOPS / p.BHCMOPS
			eg += p.HiMapEff / p.BHCEff
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(&b, "\ngeomean-free averages over %d comparable points: utilization %.1fx, performance %.1fx, efficiency %.1fx\n",
			n, ug/float64(n), pg/float64(n), eg/float64(n))
		b.WriteString("paper: 2.8x utilization, 17.3x performance, 5x power efficiency\n")
	}
	return b.String()
}

// ----------------------------------------------------------------- Fig 8

// Fig8Point is one compilation-time measurement at block size B (with the
// CGRA size c = B, as in the paper).
type Fig8Point struct {
	Kernel    string
	B         int
	HiMapTime time.Duration
	HiMapOK   bool
	BHCTime   time.Duration
	BHCOK     bool
	BHCNote   string
}

// Fig8Config tunes the compilation-time sweep.
type Fig8Config struct {
	Kernels []*kernel.Kernel // default MVT, GEMM, TTM
	Bs      []int            // default 2..64 as in the paper
	// Progress, when set, receives each point as soon as it is measured.
	Progress       func(Fig8Point)
	BaselineBudget time.Duration // default 30s (stands in for the 3-day timeout)
	// MaxInner caps the pure-time block dimensions (b3..bl) of 3-D and
	// 4-D kernels in the sweep: II_B — and with it the materialized
	// configuration and the unrolled DFG — grows with their product, and
	// the paper's own 32-entry configuration memory cannot hold IIs beyond
	// 32/t anyway. Defaults: 16 for 3-D kernels, 8 for 4-D. See
	// EXPERIMENTS.md.
	MaxInner3D int
	MaxInner4D int
	Seed       int64
	// Workers bounds how many sweep points run concurrently (results keep
	// the sequential order). 0 means runtime.GOMAXPROCS(0).
	Workers int
}

func (c Fig8Config) withDefaults() Fig8Config {
	if len(c.Kernels) == 0 {
		c.Kernels = []*kernel.Kernel{kernel.MVT(), kernel.GEMM(), kernel.TTM()}
	}
	if len(c.Bs) == 0 {
		c.Bs = []int{2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 32, 64}
	}
	if c.BaselineBudget == 0 {
		c.BaselineBudget = 30 * time.Second
	}
	if c.MaxInner3D == 0 {
		c.MaxInner3D = 16
	}
	if c.MaxInner4D == 0 {
		c.MaxInner4D = 8
	}
	return c
}

// innerBlock is the pure-time block extent of kernel k on a size×size
// sweep point: size itself, capped by MaxInner3D / MaxInner4D.
func (c Fig8Config) innerBlock(k *kernel.Kernel, size int) int {
	switch {
	case k.Dim == 3:
		return min(size, c.MaxInner3D)
	case k.Dim >= 4:
		return min(size, c.MaxInner4D)
	}
	return size
}

// Fig8 measures compilation time vs block size (b = c) for both mappers.
// Points run Workers at a time; the returned slice keeps the sequential
// (kernel-major, block-minor) order.
func Fig8(cfg Fig8Config) ([]Fig8Point, error) {
	cfg = cfg.withDefaults()
	type job struct {
		k *kernel.Kernel
		b int
	}
	var jobs []job
	for _, k := range cfg.Kernels {
		for _, b := range cfg.Bs {
			if b < k.MinBlock {
				continue
			}
			jobs = append(jobs, job{k: k, b: b})
		}
	}
	var progressMu sync.Mutex
	out := par.Map(par.Workers(cfg.Workers), len(jobs), func(i int) Fig8Point {
		k, b := jobs[i].k, jobs[i].b
		p := Fig8Point{Kernel: k.Name, B: b}
		res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(b, b), himap.Options{InnerBlock: cfg.innerBlock(k, b), Workers: 1})
		if err == nil {
			p.HiMapOK = true
			p.HiMapTime = res.Stats.Total
		}
		bres, err := baseline.CompileRequest(context.TODO(), k, arch.DefaultFabric(b, b), k.UniformBlock(b),
			baseline.Options{Seed: cfg.Seed, TimeBudget: cfg.BaselineBudget})
		switch {
		case err == nil:
			p.BHCOK = true
			p.BHCTime = bres.Time
		default:
			var tooLarge baseline.ErrTooLarge
			var timeout baseline.ErrTimeout
			if errors.As(err, &tooLarge) {
				p.BHCNote = tooLarge.Error()
			} else if errors.As(err, &timeout) {
				p.BHCNote = "timeout"
			} else {
				p.BHCNote = "failed"
			}
		}
		if cfg.Progress != nil {
			progressMu.Lock()
			cfg.Progress(p)
			progressMu.Unlock()
		}
		return p
	})
	return out, nil
}

// FormatFig8 renders the compilation-time sweep.
func FormatFig8(points []Fig8Point) string {
	var b strings.Builder
	b.WriteString("Figure 8: compilation time vs block size (c = b)\n")
	fmt.Fprintf(&b, "%-8s %4s | %12s | %12s %s\n", "Kernel", "b", "HiMap", "BHC", "note")
	for _, p := range points {
		hm := "fail"
		if p.HiMapOK {
			hm = p.HiMapTime.Round(time.Millisecond).String()
		}
		bhc := "fail"
		if p.BHCOK {
			bhc = p.BHCTime.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-8s %4d | %12s | %12s %s\n", p.Kernel, p.B, hm, bhc, p.BHCNote)
	}
	return b.String()
}

// ------------------------------------------------------- 64x64 envelope

// EnvelopePoint is one entry of the large-array scalability run — the
// paper's headline claim is near-optimal mappings on a 64x64 CGRA in
// under 15 minutes.
type EnvelopePoint struct {
	Kernel      string
	Size        int
	Utilization float64
	UniqueIters int
	IIB         int
	MOPS        float64
	CompileTime time.Duration
}

// Envelope compiles every kernel on large arrays (default 64x64) with
// HiMap and reports utilization and compile time. Inner (pure-time)
// dimensions use the kernel-appropriate caps of Fig8Config.
func Envelope(sizes []int, cfg Fig8Config) ([]EnvelopePoint, error) {
	cfg = cfg.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{64}
	}
	model := power.Default40nm()
	return sweep(cfg.Workers, kernel.Evaluation(), sizes, func(k *kernel.Kernel, size int) (EnvelopePoint, error) {
		res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), himap.Options{InnerBlock: cfg.innerBlock(k, size), Workers: 1})
		if err != nil {
			return EnvelopePoint{}, fmt.Errorf("exp: envelope %s %dx%d: %v", k.Name, size, size, err)
		}
		return EnvelopePoint{
			Kernel:      k.Name,
			Size:        size,
			Utilization: res.Utilization,
			UniqueIters: res.UniqueIters,
			IIB:         res.IIB,
			MOPS:        model.PerformanceMOPS(res.Config),
			CompileTime: res.Stats.Total,
		}, nil
	})
}

// FormatEnvelope renders the large-array run.
func FormatEnvelope(points []EnvelopePoint) string {
	var b strings.Builder
	b.WriteString("Large-array envelope (paper: <15 min for near-optimal 64x64 mappings)\n")
	fmt.Fprintf(&b, "%-8s %-8s %7s %7s %6s %12s %12s\n", "Kernel", "CGRA", "U", "unique", "II_B", "MOPS", "compile")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %-8s %6.1f%% %7d %6d %12.0f %12v\n",
			p.Kernel, fmt.Sprintf("%dx%d", p.Size, p.Size),
			p.Utilization*100, p.UniqueIters, p.IIB, p.MOPS,
			p.CompileTime.Round(time.Millisecond))
	}
	return b.String()
}
