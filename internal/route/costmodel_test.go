package route

import (
	"errors"
	"reflect"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// legacyBase restates the pre-seam hardcoded cost table independently,
// so a drifting baseCost (or a UnitModel that stops delegating to it)
// fails loudly instead of both moving together.
var legacyBase = map[mrrg.Class]float64{
	mrrg.ClassFU:       1.0,
	mrrg.ClassOut:      1.0,
	mrrg.ClassReg:      0.6,
	mrrg.ClassRFRead:   0.3,
	mrrg.ClassRFWrite:  0.3,
	mrrg.ClassMemRead:  1.0,
	mrrg.ClassMemWrite: 1.0,
}

func TestUnitModelMatchesLegacyCosts(t *testing.T) {
	m := UnitModel{RFRead: 2, RFWrite: 1}
	for ci := 0; ci < mrrg.NumClasses; ci++ {
		c := mrrg.Class(ci)
		if got, want := m.BaseCost(c), legacyBase[c]; got != want {
			t.Errorf("BaseCost(%s) = %v, legacy table says %v", c, got, want)
		}
	}
	if m.Capacity(mrrg.ClassRFRead) != 2 || m.Capacity(mrrg.ClassRFWrite) != 1 {
		t.Errorf("RF capacities not pinned: read %d write %d",
			m.Capacity(mrrg.ClassRFRead), m.Capacity(mrrg.ClassRFWrite))
	}
	for _, c := range []mrrg.Class{mrrg.ClassFU, mrrg.ClassOut, mrrg.ClassReg, mrrg.ClassMemRead, mrrg.ClassMemWrite} {
		if m.Capacity(c) != 1 {
			t.Errorf("Capacity(%s) = %d, want 1", c, m.Capacity(c))
		}
	}
}

// tweakModel wraps UnitModel with one overridden class for the
// rejection table.
type tweakModel struct {
	UnitModel
	class mrrg.Class
	base  float64
	capa  int
}

func (m tweakModel) BaseCost(c mrrg.Class) float64 {
	if c == m.class && m.base != 0 {
		return m.base
	}
	return m.UnitModel.BaseCost(c)
}

func (m tweakModel) Capacity(c mrrg.Class) int {
	if c == m.class && m.capa != 0 {
		return m.capa
	}
	return m.UnitModel.Capacity(c)
}

func (m tweakModel) Name() string { return "tweak" }

func TestSetCostModelRejects(t *testing.T) {
	f := arch.DefaultFabric(4, 4)
	s := NewSession(mrrg.New(f, 4))
	unit := UnitModel{RFRead: f.RFReadPorts, RFWrite: f.RFWritePorts}
	cases := []struct {
		name string
		m    CostModel
		ok   bool
	}{
		{"unit", unit, true},
		{"raised on-grid reg cost", tweakModel{UnitModel: unit, class: mrrg.ClassReg, base: 0.8}, true},
		{"off-grid cost", tweakModel{UnitModel: unit, class: mrrg.ClassReg, base: 0.35}, false},
		{"below admissibility floor", tweakModel{UnitModel: unit, class: mrrg.ClassOut, base: 0.2}, false},
		{"negative cost", tweakModel{UnitModel: unit, class: mrrg.ClassFU, base: -1.0}, false},
		{"zero capacity", tweakModel{UnitModel: unit, class: mrrg.ClassOut, capa: -1}, false},
		{"raised capacity", tweakModel{UnitModel: unit, class: mrrg.ClassOut, capa: 2}, true},
	}
	for _, tc := range cases {
		err := s.SetCostModel(tc.m)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected rejection: %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			} else if !errors.Is(err, ErrBadCostModel) {
				t.Errorf("%s: rejection not typed ErrBadCostModel: %v", tc.name, err)
			}
		}
	}
	// A rejected model must leave the installed tables untouched.
	if err := s.SetCostModel(unit); err != nil {
		t.Fatal(err)
	}
	before := s.baseTab
	if err := s.SetCostModel(tweakModel{UnitModel: unit, class: mrrg.ClassReg, base: 0.35}); err == nil {
		t.Fatal("off-grid model accepted")
	}
	if s.baseTab != before {
		t.Error("rejected model mutated the installed cost table")
	}
}

// TestUnitModelPricesLegacyFormula is the cost-seam property test: for
// randomized occupancy and history state, the materialized-table pricing
// must equal the pre-refactor formula restated here from first
// principles (legacy base table, present-sharing factor, history).
func TestUnitModelPricesLegacyFormula(t *testing.T) {
	f := arch.DefaultFabric(4, 4)
	const ii = 6
	g := mrrg.New(f, ii)
	s := NewSession(g)
	rng := lcg(7)
	classes := []mrrg.Class{
		mrrg.ClassFU, mrrg.ClassOut, mrrg.ClassReg,
		mrrg.ClassRFRead, mrrg.ClassRFWrite, mrrg.ClassMemRead, mrrg.ClassMemWrite,
	}
	for trial := 0; trial < 2000; trial++ {
		c := classes[rng.next(len(classes))]
		var idx int
		switch c {
		case mrrg.ClassOut:
			idx = rng.next(f.NumLinkDirs())
		case mrrg.ClassReg:
			idx = rng.next(f.NumRegs)
		}
		n := mrrg.Node{T: rng.next(ii), R: rng.next(f.Rows), C: rng.next(f.Cols), Class: c, Idx: uint8(idx)}
		key := g.DenseKey(n)
		s.occ[key] = int32(rng.next(4))
		s.hist[key] = float64(rng.next(10)) * s.HistBump

		want := legacyBase[c]
		over := int(s.occ[key]) + 1 - g.Capacity(n.Class)
		if over > 0 {
			want *= 1 + float64(over)*s.PresFac
		}
		want += s.hist[key]
		if got := s.enterCost(n); got != want {
			t.Fatalf("trial %d %v occ=%d hist=%v: enterCost = %v, legacy formula = %v",
				trial, n, s.occ[key], s.hist[key], got, want)
		}
	}
}

// TestSearchEquivalenceBandwidthModels extends the A*-vs-Dijkstra
// bit-identity property to the bandwidth-constrained fabrics: on the
// double-pumped and narrowed register files (RF capacities 2x and 1)
// and on the shared-bus fabric (where the dense-key collapse disables
// the A* linear-key fast path), both search cores must return
// identical paths, costs, and errors under randomized congestion.
func TestSearchEquivalenceBandwidthModels(t *testing.T) {
	rng := lcg(0xfeedface)
	for _, bw := range []arch.BandwidthClass{arch.BWDouble, arch.BWBus, arch.BWNarrowRF} {
		f := arch.Fabric{CGRA: arch.Default(4, 4), Bandwidth: bw}
		const ii = 8
		g := mrrg.New(f, ii)
		old := NewSession(g)
		old.Legacy = true
		new_ := NewSession(g)
		if got, want := new_.CostModel().Name(), "bandwidth"; got != want {
			t.Fatalf("%s: installed model %q, want %q", bw, got, want)
		}
		for trial := 0; trial < 60; trial++ {
			old.Reset()
			new_.Reset()
			for i := 0; i < 5*f.NumPEs(); i++ {
				n := mrrg.Node{
					T: rng.next(ii), R: rng.next(f.Rows), C: rng.next(f.Cols),
					Class: mrrg.ClassOut, Idx: uint8(rng.next(f.NumLinkDirs())),
				}
				old.Reserve(n)
				new_.Reserve(n)
			}
			for i := 0; i < 2*f.NumPEs(); i++ {
				n := mrrg.Node{
					T: rng.next(ii), R: rng.next(f.Rows), C: rng.next(f.Cols),
					Class: mrrg.ClassReg, Idx: uint8(rng.next(f.NumRegs)),
				}
				k := g.DenseKey(n)
				old.hist[k] += old.HistBump
				new_.hist[k] += new_.HistBump
			}
			src := fu(rng.next(ii), rng.next(f.Rows), rng.next(f.Cols))
			old.Reserve(src)
			new_.Reserve(src)
			oldNet := old.NewNet(src)
			newNet := new_.NewNet(src)
			for sink := 0; sink < 2; sink++ {
				dt := 1 + rng.next(6)
				targets := g.OperandTargets(src.T+dt, rng.next(f.Rows), rng.next(f.Cols))
				op, oc, oerr := old.RouteSink(oldNet, targets)
				np, nc, nerr := new_.RouteSink(newNet, targets)
				if (oerr == nil) != (nerr == nil) {
					t.Fatalf("%s trial %d sink %d: Dijkstra err %v, A* err %v", bw, trial, sink, oerr, nerr)
				}
				if oerr != nil {
					continue
				}
				if oc != nc {
					t.Fatalf("%s trial %d sink %d: cost %v (Dijkstra) != %v (A*)", bw, trial, sink, oc, nc)
				}
				if !reflect.DeepEqual(op, np) {
					t.Fatalf("%s trial %d sink %d:\nDijkstra %v\nA*       %v", bw, trial, sink, op, np)
				}
			}
		}
	}
}

// TestDoublePumpedRFPricing checks the bandwidth model's point: with a
// double-pumped register file (declared 2 write ports, effective 4) the
// fourth write-port occupant of a cycle is congestion-free, the fifth
// pays the present-sharing penalty. Link capacity stays 1 in every
// class — the configuration word encodes one value per link per cycle —
// so the second occupant of an output register is always congested.
func TestDoublePumpedRFPricing(t *testing.T) {
	f := arch.Fabric{CGRA: arch.Default(4, 4), Bandwidth: arch.BWDouble}
	g := mrrg.New(f, 4)
	s := NewSession(g)
	if got := g.Capacity(mrrg.ClassRFWrite); got != 2*f.RFWritePorts {
		t.Fatalf("double-pumped RF write capacity %d, want %d", got, 2*f.RFWritePorts)
	}
	n := mrrg.Node{T: 0, R: 1, C: 1, Class: mrrg.ClassRFWrite}
	key := g.DenseKey(n)
	if got := s.enterCost(n); got != 0.3 {
		t.Fatalf("empty RF write port enter cost %v, want 0.3", got)
	}
	s.occ[key] = 3
	if got := s.enterCost(n); got != 0.3 {
		t.Errorf("fourth occupant priced %v on a double-pumped 2-port RF, want congestion-free 0.3", got)
	}
	s.occ[key] = 4
	want := 0.3 * (1 + 1*s.PresFac)
	if got := s.enterCost(n); got != want {
		t.Errorf("fifth occupant priced %v, want %v", got, want)
	}

	out := mrrg.Node{T: 0, R: 1, C: 1, Class: mrrg.ClassOut, Idx: 0}
	okey := g.DenseKey(out)
	s.occ[okey] = 1
	if got, want := s.enterCost(out), 1.0*(1+1*s.PresFac); got != want {
		t.Errorf("second link occupant priced %v, want congested %v (links are single-lane in every class)", got, want)
	}
}
