package exp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/himap"
	"himap/internal/kernel"
	"himap/internal/par"
	"himap/internal/power"
)

// ExplorePoint is one cell of the design-space sweep: one kernel
// compiled on one fabric candidate, priced by that fabric's power
// model. Failed candidates stay in the list with their typed failure
// class, so a sweep doubles as a feasibility map of the design space.
type ExplorePoint struct {
	Kernel string `json:"kernel"`
	Fabric string `json:"fabric"`
	OK     bool   `json:"ok"`
	// Fail is the diag failure class of a failed compile ("" when OK) —
	// e.g. "link-bandwidth demand infeasible on fabric".
	Fail        string  `json:"fail,omitempty"`
	IIB         int     `json:"ii_b,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	MOPS        float64 `json:"mops,omitempty"`
	PowerMW     float64 `json:"power_mw,omitempty"`
	Eff         float64 `json:"eff_mops_per_mw,omitempty"`
	WallMS      float64 `json:"wall_ms"`
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
	type job struct {
		k   *kernel.Kernel
		ki  int
		fab arch.Fabric
	}
	var jobs []job
	for ki, k := range cfg.Kernels {
		for _, fab := range cfg.Fabrics {
			jobs = append(jobs, job{k: k, ki: ki, fab: fab})
		}
	}
	type cell struct {
		p  ExplorePoint
		ki int
	}
	cells := par.Map(par.Workers(cfg.Workers), len(jobs), func(i int) cell {
		j := jobs[i]
		p := ExplorePoint{Kernel: j.k.Name, Fabric: j.fab.String()}
		start := time.Now()
		res, err := himap.CompileRequest(context.TODO(), j.k, j.fab, himap.Options{Workers: 1})
		p.WallMS = float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			p.Fail = failClass(err)
			return cell{p: p, ki: j.ki}
		}
		model := power.ModelFor(j.fab)
		p.OK = true
		p.IIB = res.IIB
		p.Utilization = res.Utilization
		p.MOPS = model.PerformanceMOPS(res.Config)
		p.PowerMW = model.PowerMW(res.Config)
		p.Eff = model.EfficiencyMOPSPerMW(res.Config)
		return cell{p: p, ki: j.ki}
	})
	sort.SliceStable(cells, func(a, b int) bool {
		x, y := cells[a], cells[b]
		if x.ki != y.ki {
			return x.ki < y.ki
		}
		if x.p.OK != y.p.OK {
			return x.p.OK
		}
		if x.p.OK {
			if x.p.Eff != y.p.Eff {
				return x.p.Eff > y.p.Eff
			}
			if x.p.IIB != y.p.IIB {
				return x.p.IIB < y.p.IIB
			}
		}
		return x.p.Fabric < y.p.Fabric
	})
	out := make([]ExplorePoint, len(cells))
	for i, c := range cells {
		out[i] = c.p
	}
	return out
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
