package route

import (
	"errors"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/mrrg"
)

func fu(t, r, c int) mrrg.Node { return mrrg.Node{T: t, R: r, C: c, Class: mrrg.ClassFU} }

func TestRouteNeighborSingleHop(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(2, 2), 4)
	s := NewSession(g)
	src := fu(0, 0, 0)
	s.Reserve(src)
	net := s.NewNet(src)
	// Deliver to the FU of (0,1) at t=1: expect FU(0,0,0) -> OUT.E -> done.
	path, cost, err := s.RouteSink(net, g.OperandTargets(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("path = %v, want length 2", path)
	}
	last := path[len(path)-1]
	if last.Class != mrrg.ClassOut || arch.Dir(last.Idx) != arch.East || last.T != 0 {
		t.Errorf("final node %v, want OUT.E@(0,0)t0", last)
	}
	if cost <= 0 {
		t.Errorf("cost = %v", cost)
	}
}

func TestRouteSamePELaterCycleUsesRF(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(1, 1), 4)
	s := NewSession(g)
	src := fu(0, 0, 0)
	s.Reserve(src)
	net := s.NewNet(src)
	// 1x1 array: the only way to reach t=2 on the same PE is the RF.
	path, _, err := s.RouteSink(net, g.OperandTargets(2, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	sawReg := false
	for _, n := range path {
		if n.Class == mrrg.ClassReg {
			sawReg = true
		}
	}
	if !sawReg {
		t.Errorf("path %v should pass through a register", path)
	}
	if path[len(path)-1].Class != mrrg.ClassRFRead {
		t.Errorf("delivery node %v, want RF read", path[len(path)-1])
	}
}

func TestRouteWrapsModulo(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(2, 1), 3)
	s := NewSession(g)
	src := fu(2, 0, 0)
	s.Reserve(src)
	net := s.NewNet(src)
	// Producer at the last cycle of the period, consumer at real cycle 3
	// (slot 0 of the next repetition): a single real-time hop whose
	// resources fold modulo II.
	path, _, err := s.RouteSink(net, g.OperandTargets(3, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Errorf("wrapped path = %v, want single hop", path)
	}
}

func TestNetFanoutSharesPrefix(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(1, 3), 8)
	s := NewSession(g)
	src := fu(0, 0, 0)
	s.Reserve(src)
	net := s.NewNet(src)
	// First sink: two hops east.
	if _, _, err := s.RouteSink(net, g.OperandTargets(2, 0, 2)); err != nil {
		t.Fatal(err)
	}
	occBefore := len(net.Nodes())
	// Second sink: the intermediate PE (0,1) at t=1 — its delivery node
	// OUT.E@(0,0)t0 is already part of the net, so no new resources.
	if _, _, err := s.RouteSink(net, g.OperandTargets(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := len(net.Nodes()); got != occBefore {
		t.Errorf("fanout tap added %d nodes, want 0", got-occBefore)
	}
}

func TestCongestionAvoidance(t *testing.T) {
	// Two values from (0,0)t0 and (0,0)t0... can't place two ops on one FU;
	// instead: producers at (0,0) and (2,0), both with a consumer at
	// (1,1)t2 port A/B. Both shortest routes want OUT nodes of distinct
	// PEs, so no conflict; instead test direct oversubscription: two nets
	// forced through the same out register.
	g := mrrg.New(arch.DefaultFabric(1, 2), 2)
	s := NewSession(g)
	srcA := fu(0, 0, 0)
	s.Reserve(srcA)
	netA := s.NewNet(srcA)
	if _, _, err := s.RouteSink(netA, g.OperandTargets(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	srcB := fu(0, 0, 0) // same FU cycle — artificial second producer
	netB := s.NewNet(srcB)
	if _, _, err := s.RouteSink(netB, g.OperandTargets(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	// On a 1x2 array both nets need OUT.E@(0,0)t0: oversubscribed.
	over := s.OversubscribedIn([]*Net{netA, netB})
	if len(over) == 0 {
		t.Fatal("expected oversubscription of the single east output register")
	}
	if n := s.BumpHistory([]*Net{netA, netB}); len(n) == 0 {
		t.Error("BumpHistory should report bumped nodes")
	}
	if s.Hist(over[0]) == 0 {
		t.Error("history cost must increase")
	}
	// Rip up net B and re-route: with history cost it should now detour
	// through the register file (deliver at a later... same consumer —
	// the only alternative is RF->... there is none to (0,1) except OUT.E,
	// so it stays oversubscribed but costlier; just verify Release works.
	s.Release(netB)
	over = s.OversubscribedIn([]*Net{netA})
	if len(over) != 0 {
		t.Errorf("after release nothing should be oversubscribed, got %v", over)
	}
}

func TestReleaseRestoresOccupancy(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(2, 2), 4)
	s := NewSession(g)
	src := fu(0, 0, 0)
	s.Reserve(src)
	net := s.NewNet(src)
	path, _, err := s.RouteSink(net, g.OperandTargets(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Occ(path[1]) != 1 {
		t.Errorf("occupancy of %v = %d", path[1], s.Occ(path[1]))
	}
	s.Release(net)
	if s.Occ(path[1]) != 0 {
		t.Errorf("occupancy after release = %d", s.Occ(path[1]))
	}
	if s.Occ(src) != 1 {
		t.Error("source reservation must survive a net release")
	}
}

func TestDeterministicRouting(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		g := mrrg.New(arch.DefaultFabric(3, 3), 6)
		s := NewSession(g)
		src := fu(0, 0, 0)
		s.Reserve(src)
		net := s.NewNet(src)
		path, _, err := s.RouteSink(net, g.OperandTargets(4, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		g2 := mrrg.New(arch.DefaultFabric(3, 3), 6)
		s2 := NewSession(g2)
		s2.Reserve(src)
		net2 := s2.NewNet(src)
		path2, _, err := s2.RouteSink(net2, g2.OperandTargets(4, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != len(path2) {
			t.Fatalf("non-deterministic path lengths %d vs %d", len(path), len(path2))
		}
		for i := range path {
			if path[i] != path2[i] {
				t.Fatalf("non-deterministic path node %d: %v vs %v", i, path[i], path2[i])
			}
		}
	}
}

// TestPathLatencyEqualsScheduleDistance: with real-time search, a routed
// path's latency is exactly the producer→consumer schedule distance —
// never off by a multiple of II (which would silently deliver a value
// from the wrong block initiation).
func TestPathLatencyEqualsScheduleDistance(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(3, 3), 4)
	s := NewSession(g)
	for _, tc := range []struct{ srcT, dstT, dr, dc int }{
		{0, 1, 0, 1}, // one hop, one cycle
		{0, 5, 2, 2}, // four hops, five cycles (one cycle of slack)
		{2, 9, 1, 0}, // one hop, seven cycles (needs storage)
		{3, 4, 1, 0}, // wrap-adjacent
	} {
		src := fu(tc.srcT, 0, 0)
		s.Reserve(src)
		net := s.NewNet(src)
		path, _, err := s.RouteSink(net, g.OperandTargets(tc.dstT, tc.dr, tc.dc))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		last := path[len(path)-1]
		// Delivery nodes: neighbor OUT at dstT-1, or local RFRead/MemRead at dstT.
		switch last.Class {
		case mrrg.ClassOut:
			if last.T != tc.dstT-1 {
				t.Errorf("%+v: delivery at real t=%d, want %d", tc, last.T, tc.dstT-1)
			}
		case mrrg.ClassRFRead, mrrg.ClassMemRead:
			if last.T != tc.dstT {
				t.Errorf("%+v: delivery at real t=%d, want %d", tc, last.T, tc.dstT)
			}
		}
		// Monotone non-decreasing real times along the path.
		for i := 1; i < len(path); i++ {
			if path[i].T < path[i-1].T {
				t.Errorf("%+v: time went backwards: %v -> %v", tc, path[i-1], path[i])
			}
		}
		s.Release(net)
		s.Unreserve(src)
	}
}

// TestRouteImpossibleTiming: a consumer earlier than any reachable time
// must fail rather than wrap around.
func TestRouteImpossibleTiming(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(2, 2), 8)
	s := NewSession(g)
	src := fu(5, 0, 0)
	s.Reserve(src)
	net := s.NewNet(src)
	// Target at real time 3 < source time 5: unreachable (monotone time).
	if _, _, err := s.RouteSink(net, g.OperandTargets(3, 0, 1)); err == nil {
		t.Error("routing backwards in real time must fail")
	}
}

// TestResetKeepHistoryPreservesEscalation.
func TestResetKeepHistoryPreservesEscalation(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(1, 2), 2)
	s := NewSession(g)
	src := fu(0, 0, 0)
	s.Reserve(src)
	netA := s.NewNet(src)
	if _, _, err := s.RouteSink(netA, g.OperandTargets(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	netB := s.NewNet(src)
	if _, _, err := s.RouteSink(netB, g.OperandTargets(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	bumped := s.BumpHistory([]*Net{netA, netB})
	if len(bumped) == 0 {
		t.Fatal("expected oversubscription")
	}
	over := bumped[0]
	h := s.Hist(over)
	s.ResetKeepHistory()
	if s.Occ(over) != 0 {
		t.Error("occupancy must clear")
	}
	if s.Hist(over) != h {
		t.Error("history must survive the reset")
	}
}

// TestNetOutRegisterHoldPath: long same-direction delays can ride the
// output register's hold.
func TestNetOutRegisterHoldPath(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(1, 2), 6)
	s := NewSession(g)
	src := fu(0, 0, 0)
	s.Reserve(src)
	net := s.NewNet(src)
	path, _, err := s.RouteSink(net, g.OperandTargets(3, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Some storage is required for the 3-cycle latency over 1 hop.
	storage := 0
	for _, n := range path {
		if n.Class == mrrg.ClassReg || n.Class == mrrg.ClassOut {
			storage++
		}
	}
	if storage < 2 {
		t.Errorf("path %v should use storage for the slack", path)
	}
}

// TestBuildDFGNodeWall: the flat backends' node wall refuses a block past
// maxNodes with a diag.ErrTooLarge StageError stamped dfg-build — before
// materializing the DFG when the per-iteration body ops already exceed
// the wall (no dfg-build span), after it otherwise (one span) — and
// passes a DFG of exactly maxNodes nodes.
func TestBuildDFGNodeWall(t *testing.T) {
	k, block, fab := kernel.GEMM(), []int{2, 2, 2}, arch.DefaultFabric(4, 4)
	d, err := k.BuildDFG(block)
	if err != nil {
		t.Fatal(err)
	}
	lower, nodes := ir.BoxSize(block)*len(k.Body), len(d.Nodes)
	if lower >= nodes {
		t.Fatalf("GEMM %v: body-op bound %d not below %d nodes; the two refusals coincide", block, lower, nodes)
	}
	for _, c := range []struct {
		name     string
		maxNodes int
		spans    int
		refused  bool
	}{
		{"before-build", lower - 1, 0, true},
		{"after-build", nodes - 1, 1, true},
		{"at-wall", nodes, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			col := diag.NewCollector()
			got, err := BuildDFG(k, fab, block, c.maxNodes, col)
			if n := len(col.Spans()); n != c.spans {
				t.Errorf("%d dfg-build spans, want %d", n, c.spans)
			}
			if !c.refused {
				if err != nil || len(got.Nodes) != nodes {
					t.Fatalf("BuildDFG at the wall: %v", err)
				}
				return
			}
			var se *diag.StageError
			if !errors.As(err, &se) || !errors.Is(err, diag.ErrTooLarge) || se.Stage != "dfg-build" || se.Kernel != k.Name {
				t.Fatalf("BuildDFG past the wall: %v, want a dfg-build ErrTooLarge StageError", err)
			}
		})
	}
}
