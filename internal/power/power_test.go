package power

import (
	"context"
	"testing"

	"himap/internal/arch"
	"himap/internal/himap"
	"himap/internal/ir"
	"himap/internal/kernel"
)

func fullConfig(t *testing.T) *arch.Config {
	t.Helper()
	res, err := himap.CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Config
}

func TestPerformanceMOPSFormula(t *testing.T) {
	cfg := fullConfig(t)
	m := Default40nm()
	// GEMM maps at 100% utilization: 16 PEs × 510 MHz.
	want := 16.0 * 510.0
	if got := m.PerformanceMOPS(cfg); got != want {
		t.Errorf("PerformanceMOPS = %v, want %v", got, want)
	}
}

func TestActivityBounds(t *testing.T) {
	cfg := fullConfig(t)
	a := MeasureActivity(cfg)
	for name, v := range map[string]float64{"fu": a.FU, "route": a.Route, "rf": a.RF, "mem": a.Mem} {
		if v < 0 || v > 1 {
			t.Errorf("activity %s = %v out of [0,1]", name, v)
		}
	}
	if a.FU != 1.0 {
		t.Errorf("GEMM FU activity = %v, want 1.0 (100%% utilization)", a.FU)
	}
	if a.Route == 0 {
		t.Error("systolic mapping must exercise the crossbar")
	}
}

func TestIdleArrayBurnsOnlyStatic(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(4, 4), 4)
	m := Default40nm()
	want := 16 * m.StaticMW
	if got := m.PowerMW(cfg); got != want {
		t.Errorf("idle power = %v, want %v", got, want)
	}
	if m.PerformanceMOPS(cfg) != 0 {
		t.Error("idle array has zero throughput")
	}
}

func TestEfficiencyFavorsUtilization(t *testing.T) {
	// A half-utilized configuration on the same array must be less power
	// efficient than a fully utilized one — the static share dominates.
	m := Default40nm()
	full := arch.NewConfig(arch.DefaultFabric(2, 2), 2)
	half := arch.NewConfig(arch.DefaultFabric(2, 2), 2)
	mk := func(cfg *arch.Config, every int) {
		i := 0
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				for tt := 0; tt < 2; tt++ {
					if i%every == 0 {
						in := cfg.At(r, c, tt)
						in.Op = ir.OpAdd
						in.SrcA = arch.FromConst(1)
						in.SrcB = arch.FromConst(2)
					}
					i++
				}
			}
		}
	}
	mk(full, 1)
	mk(half, 2)
	ef := m.EfficiencyMOPSPerMW(full)
	eh := m.EfficiencyMOPSPerMW(half)
	if ef <= eh {
		t.Errorf("efficiency full %v <= half %v; static power share broken", ef, eh)
	}
}

func TestPowerMonotoneInActivity(t *testing.T) {
	m := Default40nm()
	idle := arch.NewConfig(arch.DefaultFabric(2, 2), 1)
	busy := arch.NewConfig(arch.DefaultFabric(2, 2), 1)
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			in := busy.At(r, c, 0)
			in.Op = ir.OpMul
			in.SrcA = arch.FromConst(1)
			in.SrcB = arch.FromConst(2)
			in.MemRead = arch.MemOp{Active: true, Tag: "x"}
		}
	}
	if m.PowerMW(busy) <= m.PowerMW(idle) {
		t.Error("busy array must dissipate more than idle")
	}
}

func TestEfficiencyZeroPowerGuard(t *testing.T) {
	m := Model{ClockMHz: 510}
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 1)
	if got := m.EfficiencyMOPSPerMW(cfg); got != 0 {
		t.Errorf("zero-power efficiency = %v", got)
	}
}

func TestHiMapBeatsBaselineEfficiencyShape(t *testing.T) {
	// The Fig. 7 bottom-panel shape: at the same array size, a mapping at
	// the performance envelope is more power efficient than a severely
	// under-utilized one.
	res, err := himap.CompileRequest(context.Background(), kernel.MVT(), arch.DefaultFabric(8, 8), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := Default40nm()
	effHi := m.EfficiencyMOPSPerMW(res.Config)
	// Build an artificial low-utilization config of the same size.
	low := arch.NewConfig(arch.DefaultFabric(8, 8), 8)
	in := low.At(0, 0, 0)
	in.Op = ir.OpAdd
	in.SrcA = arch.FromConst(1)
	in.SrcB = arch.FromConst(2)
	effLow := m.EfficiencyMOPSPerMW(low)
	if effHi <= effLow {
		t.Errorf("efficiency shape inverted: HiMap %v <= low-util %v", effHi, effLow)
	}
	if effHi < 50 || effHi > 200 {
		t.Errorf("efficiency %v MOPS/mW far from the paper's ~10^2 scale", effHi)
	}
}

// TestModelForDefaultIsPaperModel pins the resource/cost seam's zero
// point: the default fabric must price exactly as the paper's 40 nm
// model — any drift would silently move every published number.
func TestModelForDefaultIsPaperModel(t *testing.T) {
	if got, want := ModelFor(arch.DefaultFabric(8, 8)), Default40nm(); got != want {
		t.Fatalf("ModelFor(default) = %+v, want Default40nm %+v", got, want)
	}
}

// TestModelForCornersAndBandwidth checks the direction and composition
// of the cost-corner and bandwidth scalings without restating every
// constant: corners move all terms one way, bandwidth classes touch
// only the resource they change, and the two compose multiplicatively.
func TestModelForCornersAndBandwidth(t *testing.T) {
	base := Default40nm()
	low := ModelFor(arch.Fabric{CGRA: arch.Default(8, 8), Cost: arch.CostLowPower})
	high := ModelFor(arch.Fabric{CGRA: arch.Default(8, 8), Cost: arch.CostHighPerf})
	if !(low.ClockMHz < base.ClockMHz && base.ClockMHz < high.ClockMHz) {
		t.Errorf("clock ordering wrong: %v / %v / %v", low.ClockMHz, base.ClockMHz, high.ClockMHz)
	}
	for _, tc := range []struct {
		name        string
		lo, mid, hi float64
	}{
		{"static", low.StaticMW, base.StaticMW, high.StaticMW},
		{"fu", low.FUMW, base.FUMW, high.FUMW},
		{"route", low.RouteMW, base.RouteMW, high.RouteMW},
		{"rf", low.RFMW, base.RFMW, high.RFMW},
		{"mem", low.MemMW, base.MemMW, high.MemMW},
	} {
		if !(tc.lo < tc.mid && tc.mid < tc.hi) {
			t.Errorf("%s power ordering wrong: %v / %v / %v", tc.name, tc.lo, tc.mid, tc.hi)
		}
	}

	double := ModelFor(arch.Fabric{CGRA: arch.Default(8, 8), Bandwidth: arch.BWDouble})
	if double.RFMW != 2*base.RFMW {
		t.Errorf("double-pumped RF power %v, want %v", double.RFMW, 2*base.RFMW)
	}
	if double.RouteMW != base.RouteMW || double.FUMW != base.FUMW || double.ClockMHz != base.ClockMHz {
		t.Error("BWDouble must scale only the RF term")
	}
	bus := ModelFor(arch.Fabric{CGRA: arch.Default(8, 8), Bandwidth: arch.BWBus})
	if bus.RouteMW != 0.5*base.RouteMW || bus.RFMW != base.RFMW {
		t.Errorf("bus scaling wrong: route %v rf %v", bus.RouteMW, bus.RFMW)
	}
	narrow := ModelFor(arch.Fabric{CGRA: arch.Default(8, 8), Bandwidth: arch.BWNarrowRF})
	if narrow.RFMW != 0.6*base.RFMW || narrow.RouteMW != base.RouteMW {
		t.Errorf("narrow-rf scaling wrong: rf %v route %v", narrow.RFMW, narrow.RouteMW)
	}

	both := ModelFor(arch.Fabric{CGRA: arch.Default(8, 8), Cost: arch.CostHighPerf, Bandwidth: arch.BWDouble})
	if both.RFMW != 2*high.RFMW {
		t.Errorf("corner and bandwidth must compose: RF %v, want %v", both.RFMW, 2*high.RFMW)
	}
}
