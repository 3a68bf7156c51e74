// Package power models performance and power of mapped CGRA
// configurations. The paper synthesizes the CGRA in Verilog on a 40 nm
// process (Synopsys toolchain, 510 MHz) and measures power; this package
// substitutes an activity-based analytic model calibrated to that
// operating point (see DESIGN.md, "Substitutions"): per-PE static power
// plus dynamic power proportional to measured FU, crossbar, register-file,
// and data-memory activity extracted from the configuration. The model
// preserves the evaluation's shape: power grows with array size and
// activity, so under-utilized mappings on big arrays lose power
// efficiency while fully-utilized mappings gain it (Fig. 7, bottom).
package power

import (
	"himap/internal/arch"
)

// Model holds the per-PE power coefficients in milliwatts at 510 MHz.
type Model struct {
	ClockMHz float64

	StaticMW float64 // leakage + clock tree, always on
	FUMW     float64 // ALU at 100% activity
	RouteMW  float64 // one output register at 100% switching
	RFMW     float64 // register file at 100% port activity
	MemMW    float64 // data memory at 100% port activity
}

// Default40nm returns coefficients calibrated to the paper's 40 nm,
// 510 MHz design point: a fully active PE dissipates ≈5.5 mW (ideal
// efficiency near 10² MOPS/mW, Fig. 7 bottom), and a statically scheduled
// PE burns ≈2 mW even when idle — configuration-memory fetch, clock tree,
// and leakage run every cycle regardless of useful work. That always-on
// share is what makes under-utilized mappings lose efficiency as the
// array grows, the paper's key power observation.
func Default40nm() Model {
	return Model{
		ClockMHz: 510,
		StaticMW: 2.00,
		FUMW:     1.50,
		RouteMW:  0.20,
		RFMW:     0.40,
		MemMW:    0.80,
	}
}

// ModelFor returns the power model of a fabric: the paper's balanced
// 40 nm point scaled by the fabric's cost class (silicon corner) and
// bandwidth class (interconnect implementation). The default fabric
// maps to Default40nm exactly.
//
// Cost corners: the low-power corner trades 20% clock for markedly
// lower leakage and switching energy (high-Vt cells); the
// high-performance corner buys 25% clock at a superlinear dynamic
// premium and 40% more leakage (low-Vt, stronger drive).
//
// Bandwidth classes price the resource they change: a double-pumped
// register file clocks its port logic twice per cycle; a shared egress
// bus replaces the per-direction link drivers with one; a narrowed
// register file drops port muxing energy.
func ModelFor(f arch.Fabric) Model {
	m := Default40nm()
	switch f.Cost {
	case arch.CostLowPower:
		m = Model{ClockMHz: 408, StaticMW: 1.50, FUMW: 1.05, RouteMW: 0.14, RFMW: 0.28, MemMW: 0.56}
	case arch.CostHighPerf:
		m = Model{ClockMHz: 637.5, StaticMW: 2.80, FUMW: 2.40, RouteMW: 0.32, RFMW: 0.64, MemMW: 1.28}
	}
	switch f.Bandwidth {
	case arch.BWDouble:
		m.RFMW *= 2
	case arch.BWBus:
		m.RouteMW *= 0.5
	case arch.BWNarrowRF:
		m.RFMW *= 0.6
	}
	return m
}

// Activity summarizes the switching activity of a configuration.
type Activity struct {
	FU    float64 // busy FU slots / total FU slots
	Route float64 // driven output registers / total
	RF    float64 // used RF ports / total port capacity
	Mem   float64 // active memory ports / total
}

// MeasureActivity extracts activity factors from a configuration.
func MeasureActivity(cfg *arch.Config) Activity {
	a := cfg.Fabric
	ndirs := arch.Dir(a.NumLinkDirs())
	var fu, routes, rfports, mem int
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			for t := 0; t < cfg.II; t++ {
				in := &cfg.Slots[r][c][t]
				if in.Op.IsCompute() {
					fu++
				}
				for d := arch.Dir(0); d < ndirs; d++ {
					if in.OutSel[d].Kind != arch.OpdNone {
						routes++
					}
				}
				reads := map[int]bool{}
				note := func(o arch.Operand) {
					if o.Kind == arch.OpdReg {
						reads[o.Reg] = true
					}
				}
				note(in.SrcA)
				note(in.SrcB)
				for d := arch.Dir(0); d < ndirs; d++ {
					note(in.OutSel[d])
				}
				rfports += len(reads) + len(in.RegWr)
				if in.MemRead.Active {
					mem++
				}
				if in.MemWrite.Active {
					mem++
				}
			}
		}
	}
	slots := float64(a.NumPEs() * cfg.II)
	return Activity{
		FU:    float64(fu) / slots,
		Route: float64(routes) / (slots * float64(ndirs)),
		RF:    float64(rfports) / (slots * float64(a.RFReadCap()+a.RFWriteCap())),
		Mem:   float64(mem) / (slots * 2),
	}
}

// PerformanceMOPS returns the throughput of the steady-state schedule in
// millions of operations per second: (busy FUs / II) × clock.
func (m Model) PerformanceMOPS(cfg *arch.Config) float64 {
	opsPerCycle := float64(cfg.BusyFUs()) / float64(cfg.II)
	return opsPerCycle * m.ClockMHz
}

// PowerMW returns the total dissipation of the array running the
// configuration.
func (m Model) PowerMW(cfg *arch.Config) float64 {
	act := MeasureActivity(cfg)
	pes := float64(cfg.Fabric.NumPEs())
	perPE := m.StaticMW +
		act.FU*m.FUMW +
		act.Route*float64(cfg.Fabric.NumLinkDirs())*m.RouteMW +
		act.RF*m.RFMW +
		act.Mem*m.MemMW
	return pes * perPE
}

// EfficiencyMOPSPerMW returns MOPS per milliwatt — the power-efficiency
// metric of Fig. 7 (bottom).
func (m Model) EfficiencyMOPSPerMW(cfg *arch.Config) float64 {
	p := m.PowerMW(cfg)
	if p == 0 {
		return 0
	}
	return m.PerformanceMOPS(cfg) / p
}
