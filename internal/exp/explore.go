package exp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/himap"
	"himap/internal/kernel"
	"himap/internal/power"
)

// ExplorePoint is one cell of the design-space sweep: one kernel
// compiled on one fabric candidate, priced by that fabric's power
// model. Failed candidates stay in the list with their typed failure
// class, so a sweep doubles as a feasibility map of the design space.
type ExplorePoint struct {
	Kernel string
	Fabric string
	OK     bool
	// Fail is the diag failure class of a failed compile ("" when OK) —
	// e.g. "link-bandwidth demand infeasible on fabric".
	Fail        string
	IIB         int
	Utilization float64
	MOPS        float64
	PowerMW     float64
	Eff         float64
}

// ExploreConfig tunes the sweep.
type ExploreConfig struct {
	Kernels []*kernel.Kernel // default: the eight Table-II kernels
	Fabrics []arch.Fabric    // default: arch.ExploreFabrics(8, 8)
	// Workers bounds concurrent (kernel, fabric) points; each point's
	// compile runs single-threaded. 0 means runtime.GOMAXPROCS(0).
	Workers int
}

func (c ExploreConfig) withDefaults() ExploreConfig {
	if len(c.Kernels) == 0 {
		c.Kernels = kernel.Evaluation()
	}
	if len(c.Fabrics) == 0 {
		c.Fabrics = arch.ExploreFabrics(8, 8)
	}
	return c
}

// Explore compiles every kernel on every fabric candidate and ranks the
// results per kernel by power efficiency. The returned order is fully
// deterministic: kernels keep their input order; within a kernel,
// successful points sort by efficiency (desc), then II (asc), then
// fabric name; failed points follow, by fabric name.
func Explore(cfg ExploreConfig) []ExplorePoint {
	cfg = cfg.withDefaults()
	// A failed compile is a point, not an error: the sweep cannot fail.
	points, _ := sweep(cfg.Workers, cfg.Kernels, cfg.Fabrics, func(k *kernel.Kernel, fab arch.Fabric) (ExplorePoint, error) {
		p := ExplorePoint{Kernel: k.Name, Fabric: fab.String()}
		res, err := himap.CompileRequest(context.TODO(), k, fab, himap.Options{Workers: 1})
		if err != nil {
			p.Fail = failClass(err)
			return p, nil
		}
		model := power.ModelFor(fab)
		p.OK = true
		p.IIB = res.IIB
		p.Utilization = res.Utilization
		p.MOPS = model.PerformanceMOPS(res.Config)
		p.PowerMW = model.PowerMW(res.Config)
		p.Eff = model.EfficiencyMOPSPerMW(res.Config)
		return p, nil
	})
	for lo, n := 0, len(cfg.Fabrics); lo < len(points); lo += n {
		ranked := points[lo : lo+n]
		sort.SliceStable(ranked, func(a, b int) bool {
			x, y := ranked[a], ranked[b]
			if x.OK != y.OK {
				return x.OK
			}
			if x.OK {
				if x.Eff != y.Eff {
					return x.Eff > y.Eff
				}
				if x.IIB != y.IIB {
					return x.IIB < y.IIB
				}
			}
			return x.Fabric < y.Fabric
		})
	}
	return points
}

// failClass names the taxonomy class of a compile failure — the
// stable, message-free identity callers dispatch on with errors.Is.
func failClass(err error) string {
	var se *diag.StageError
	if errors.As(err, &se) && se.Class != nil {
		return se.Class.Error()
	}
	return "failed"
}

// FormatExplore renders the sweep as a per-kernel efficiency ranking.
func FormatExplore(points []ExplorePoint) string {
	var b strings.Builder
	b.WriteString("Design-space exploration: per-kernel fabric ranking by MOPS/mW\n")
	prev := ""
	for _, p := range points {
		if p.Kernel != prev {
			fmt.Fprintf(&b, "\n%s:\n", p.Kernel)
			fmt.Fprintf(&b, "  %-40s %5s %7s %10s %9s %8s\n",
				"fabric", "II_B", "U", "MOPS", "mW", "MOPS/mW")
			prev = p.Kernel
		}
		if p.OK {
			fmt.Fprintf(&b, "  %-40s %5d %6.1f%% %10.0f %9.1f %8.1f\n",
				p.Fabric, p.IIB, p.Utilization*100, p.MOPS, p.PowerMW, p.Eff)
		} else {
			fmt.Fprintf(&b, "  %-40s %s\n", p.Fabric, p.Fail)
		}
	}
	return b.String()
}
