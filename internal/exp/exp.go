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
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"himap/internal/arch"
	"himap/internal/baseline"
	"himap/internal/diag"
	"himap/internal/himap"
	"himap/internal/kernel"
	"himap/internal/par"
	"himap/internal/power"
)

// Config tunes the experiment harness. A zero field takes the default of
// the figure it is passed to.
type Config struct {
	// Sizes are the CGRA sizes c (c×c). Fig. 8 and the envelope compile
	// at block b = c. Defaults: 4, 8, 16, 32 (Fig. 7), 2 to 64 (Fig. 8),
	// 64 (envelope).
	Sizes []int
	// Kernels default to the eight evaluation kernels (Fig. 8: MVT, GEMM,
	// TTM).
	Kernels []*kernel.Kernel
	// BaselineBudget is the wall-clock budget per baseline point
	// (default 20 s), passed to the conventional mapper as its context's
	// deadline.
	BaselineBudget time.Duration
	// Workers bounds how many (kernel, size) points are measured
	// concurrently. Results are always collected in the sequential point
	// order regardless of the worker count; each point's compile runs
	// single-threaded so points — not compiles — are the unit of
	// parallelism. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when set, receives each point's row text as soon as it is
	// measured. With Workers > 1 rows may arrive out of order; calls are
	// serialized.
	Progress func(string)
}

// The pure-time block extents (b3..bl) of 3-D and 4-D kernels in the
// Fig. 8 and envelope sweeps are capped: II_B — and with it the
// materialized configuration and the unrolled DFG — grows with their
// product, and the paper's own 32-entry configuration memory cannot hold
// IIs beyond 32/t anyway. See EXPERIMENTS.md.
const (
	maxInner3D = 16
	maxInner4D = 8
)

// withDefaults fills the zero fields, with sizes as the figure's default
// Sizes, and serializes Progress (a no-op when unset).
func (c Config) withDefaults(sizes ...int) Config {
	if len(c.Sizes) == 0 {
		c.Sizes = sizes
	}
	if len(c.Kernels) == 0 {
		c.Kernels = kernel.Evaluation()
	}
	if c.BaselineBudget == 0 {
		c.BaselineBudget = 20 * time.Second
	}
	report, mu := c.Progress, new(sync.Mutex)
	c.Progress = func(row string) {
		if report != nil {
			mu.Lock()
			defer mu.Unlock()
			report(row)
		}
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
		res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), himap.Options{Workers: 1})
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
	cfg = cfg.withDefaults(4, 8, 16, 32)
	model := power.Default40nm()
	return sweep(cfg.Workers, cfg.Kernels, cfg.Sizes, func(k *kernel.Kernel, size int) (Fig7Point, error) {
		p := Fig7Point{Kernel: k.Name, Size: size}
		res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), himap.Options{Workers: 1})
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
		cfg.Progress(fig7Row(p))
		return p, nil
	})
}

// runBaselineBestEffort drives the conventional mapper the way §VI
// describes users driving BHC: the largest block whose DFG fits under the
// node wall, shrinking when the time budget cannot close a mapping.
func runBaselineBestEffort(k *kernel.Kernel, size int, cfg Config) (*baseline.Result, string) {
	b := baseline.LargestFeasibleBlock(k, baseline.MaxNodes, size)
	note := ""
	if b < size {
		note = "block capped by node wall"
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.BaselineBudget)
	defer cancel()
	for ; b >= k.MinBlock && ctx.Err() == nil; b-- {
		res, err := baseline.CompileRequest(ctx, k, arch.DefaultFabric(size, size), k.UniformBlock(b), baseline.Options{})
		if err == nil {
			return res, note
		}
		if !errors.Is(err, diag.ErrTooLarge) {
			note = "timeout/shrunk"
		}
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
		b.WriteString(fig7Row(p) + "\n")
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

// fig7Row renders one point of Figure 7's table.
func fig7Row(p Fig7Point) string {
	return fmt.Sprintf("%-8s %-7s | %6.1f%% %6.1f%% | %12.0f %12.0f | %9.1f %9.1f | %s",
		p.Kernel, fmt.Sprintf("%dx%d", p.Size, p.Size),
		p.BHCU*100, p.HiMapU*100,
		p.BHCMOPS, p.HiMapMOPS,
		p.BHCEff, p.HiMapEff, p.BHCNote)
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

// innerBlock is the pure-time block extent of kernel k on a size×size
// sweep point: size itself, capped by maxInner3D / maxInner4D.
func innerBlock(k *kernel.Kernel, size int) int {
	switch {
	case k.Dim == 3:
		return min(size, maxInner3D)
	case k.Dim >= 4:
		return min(size, maxInner4D)
	}
	return size
}

// Fig8 measures compilation time vs block size (b = c) for both mappers.
// Points run Workers at a time; the returned slice keeps the sequential
// (kernel-major, block-minor) order, without the blocks below a kernel's
// MinBlock.
func Fig8(cfg Config) ([]Fig8Point, error) {
	if len(cfg.Kernels) == 0 {
		cfg.Kernels = []*kernel.Kernel{kernel.MVT(), kernel.GEMM(), kernel.TTM()}
	}
	cfg = cfg.withDefaults(2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 32, 64)
	pts, err := sweep(cfg.Workers, cfg.Kernels, cfg.Sizes, func(k *kernel.Kernel, b int) (Fig8Point, error) {
		if b < k.MinBlock {
			return Fig8Point{}, nil
		}
		p := Fig8Point{Kernel: k.Name, B: b}
		res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(b, b), himap.Options{InnerBlock: innerBlock(k, b), Workers: 1})
		if err == nil {
			p.HiMapOK = true
			p.HiMapTime = res.Stats.Total
		}
		ctx, cancel := context.WithTimeout(context.Background(), cfg.BaselineBudget)
		bres, err := baseline.CompileRequest(ctx, k, arch.DefaultFabric(b, b), k.UniformBlock(b), baseline.Options{})
		cancel()
		var se *diag.StageError
		switch {
		case err == nil:
			p.BHCOK = true
			p.BHCTime = bres.Time
		case errors.Is(err, diag.ErrTooLarge) && errors.As(err, &se):
			p.BHCNote = "node wall: " + se.Err.Error()
		case errors.Is(err, context.DeadlineExceeded):
			p.BHCNote = "timeout"
		default:
			p.BHCNote = "failed"
		}
		cfg.Progress(fig8Row(p))
		return p, nil
	})
	return slices.DeleteFunc(pts, func(p Fig8Point) bool { return p.Kernel == "" }), err
}

// FormatFig8 renders the compilation-time sweep.
func FormatFig8(points []Fig8Point) string {
	var b strings.Builder
	b.WriteString("Figure 8: compilation time vs block size (c = b)\n")
	fmt.Fprintf(&b, "%-8s %4s | %12s | %12s %s\n", "Kernel", "b", "HiMap", "BHC", "note")
	for _, p := range points {
		b.WriteString(fig8Row(p) + "\n")
	}
	return b.String()
}

// fig8Row renders one point of Figure 8's table.
func fig8Row(p Fig8Point) string {
	hm := "fail"
	if p.HiMapOK {
		hm = p.HiMapTime.Round(time.Millisecond).String()
	}
	bhc := "fail"
	if p.BHCOK {
		bhc = p.BHCTime.Round(time.Millisecond).String()
	}
	return fmt.Sprintf("%-8s %4d | %12s | %12s %s", p.Kernel, p.B, hm, bhc, p.BHCNote)
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
}

// Envelope compiles every kernel on large arrays (default 64x64) with
// HiMap and reports utilization. Inner (pure-time) dimensions take the
// caps of Fig. 8. Compile times reach Progress only, so the table itself
// is deterministic.
func Envelope(cfg Config) ([]EnvelopePoint, error) {
	cfg = cfg.withDefaults(64)
	model := power.Default40nm()
	return sweep(cfg.Workers, cfg.Kernels, cfg.Sizes, func(k *kernel.Kernel, size int) (EnvelopePoint, error) {
		res, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), himap.Options{InnerBlock: innerBlock(k, size), Workers: 1})
		if err != nil {
			return EnvelopePoint{}, fmt.Errorf("exp: envelope %s %dx%d: %v", k.Name, size, size, err)
		}
		p := EnvelopePoint{
			Kernel:      k.Name,
			Size:        size,
			Utilization: res.Utilization,
			UniqueIters: res.UniqueIters,
			IIB:         res.IIB,
			MOPS:        model.PerformanceMOPS(res.Config),
		}
		cfg.Progress(fmt.Sprintf("%s %12v", envelopeRow(p), res.Stats.Total.Round(time.Millisecond)))
		return p, nil
	})
}

// FormatEnvelope renders the large-array run.
func FormatEnvelope(points []EnvelopePoint) string {
	var b strings.Builder
	b.WriteString("Large-array envelope (paper: <15 min for near-optimal 64x64 mappings)\n")
	fmt.Fprintf(&b, "%-8s %-8s %7s %7s %6s %12s\n", "Kernel", "CGRA", "U", "unique", "II_B", "MOPS")
	for _, p := range points {
		b.WriteString(envelopeRow(p) + "\n")
	}
	return b.String()
}

// envelopeRow renders one point of the envelope table.
func envelopeRow(p EnvelopePoint) string {
	return fmt.Sprintf("%-8s %-8s %6.1f%% %7d %6d %12.0f",
		p.Kernel, fmt.Sprintf("%dx%d", p.Size, p.Size),
		p.Utilization*100, p.UniqueIters, p.IIB, p.MOPS)
}
