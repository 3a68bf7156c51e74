package route

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// resetTrial is one seeded routing problem on a graph: congestion charged
// outside any net, a few nets of one to three sinks each, an optional
// narrowed envelope, and one to three negotiation rounds in the shape of
// HiMap's canonical routing (occupancy cleared, placements re-reserved,
// the dropped round's nets returned to the freelist).
type resetTrial struct {
	congestion []mrrg.Node
	srcs       []mrrg.Node
	sinks      [][][3]int // per net: (cycle, row, column) of each consumer
	envelope   *Box
	rounds     int
	// tuned overrides the cost parameters and the visit budget as a
	// caller may (integral multiples keep costs on the deci grid); a
	// budget this small cuts some searches off.
	tuned     bool
	maxVisits int
}

// drawResetTrial draws a trial on g. Cycles stay inside an acyclic
// graph's depth, and sinks may lie out of reach, so ErrNoPath is drawn
// too.
func drawResetTrial(rng *lcg, g *mrrg.Graph) resetTrial {
	f := g.Fab
	span := g.II
	if g.Wrap {
		span = 2 * g.II
	}
	var tr resetTrial
	for i := 0; i < 2*f.NumPEs(); i++ {
		tr.congestion = append(tr.congestion,
			mrrg.Node{T: rng.next(span), R: rng.next(f.Rows), C: rng.next(f.Cols), Class: mrrg.ClassOut, Idx: uint8(rng.next(f.NumLinkDirs()))},
			mrrg.Node{T: rng.next(span), R: rng.next(f.Rows), C: rng.next(f.Cols), Class: mrrg.ClassRFWrite})
	}
	for n := 1 + rng.next(4); n > 0; n-- {
		src := fu(rng.next((span+1)/2), rng.next(f.Rows), rng.next(f.Cols))
		var sinks [][3]int
		for k := 1 + rng.next(3); k > 0; k-- {
			sinks = append(sinks, [3]int{src.T + 1 + rng.next(5), rng.next(f.Rows), rng.next(f.Cols)})
		}
		tr.srcs = append(tr.srcs, src)
		tr.sinks = append(tr.sinks, sinks)
	}
	if rng.next(3) == 0 {
		r0, c0 := rng.next(f.Rows), rng.next(f.Cols)
		tr.envelope = &Box{R0: r0, R1: r0 + rng.next(f.Rows-r0), C0: c0, C1: c0 + rng.next(f.Cols-c0)}
	}
	tr.rounds = 1 + rng.next(3)
	if tr.tuned = rng.next(4) == 0; tr.tuned {
		tr.maxVisits = 20 + rng.next(200)
	}
	return tr
}

// run routes the trial on s and returns everything a caller observes:
// the session's parameters as reset left them, each sink's path, cost and
// error under its net's ID, each round's oversubscribed nodes, and the
// final OversubscribedIn. bound is checked after every search.
func (tr resetTrial) run(t *testing.T, s *Session, bound *scratchBound, what string) []string {
	t.Helper()
	var out []string
	logf := func(format string, a ...any) { out = append(out, fmt.Sprintf(format, a...)) }
	logf("G %p PresFac %v HistBump %v MaxVisits %d Envelope %v netSeq %d closed %d",
		s.G, s.PresFac, s.HistBump, s.MaxVisits, s.Envelope, s.netSeq, s.closedNodes)
	if tr.envelope != nil {
		s.Envelope = *tr.envelope
	}
	if tr.tuned {
		s.PresFac, s.HistBump, s.MaxVisits = 4, 1, tr.maxVisits
	}
	var nets []*Net
	for round := 0; round < tr.rounds; round++ {
		if round > 0 {
			s.ResetKeepHistory()
			for _, net := range nets {
				s.FreeNet(net)
			}
			nets = nets[:0]
		}
		for _, n := range tr.congestion {
			s.Reserve(n)
		}
		for _, src := range tr.srcs {
			s.Reserve(src)
		}
		for i, src := range tr.srcs {
			net := s.NewNet(src)
			nets = append(nets, net)
			for _, k := range tr.sinks[i] {
				path, cost, err := s.RouteSink(net, s.G.OperandTargets(k[0], k[1], k[2]))
				logf("round %d net %d sink %v: %v %v %v", round, net.ID, k, path, cost, err)
				bound.check(t, s, what)
			}
		}
		logf("round %d over %v", round, s.BumpHistory(nets))
	}
	logf("over %v closed %d", s.OversubscribedIn(nets), s.closedNodes)
	return out
}

// TestSessionResetEqualsFresh re-targets one session through a seeded
// sequence of graphs — mesh, torus and diagonal topologies; unit, double,
// bus and narrow-rf bandwidth; two to seven registers; modular and
// acyclic time; II 1 to 8; arrays 1×2 to 8×8 — and at every step runs
// the same trial on it and on a NewSession over the same graph: every
// path, cost, error, net ID, oversubscribed set, and the whole occupancy
// and history state must be equal. Reset is what every compile's routing
// owner calls between attempts, leaves and IIs, so a field it forgets to
// restore, or scratch it keeps from a graph of another shape, shows here
// first. The scratch must also stay within twice the largest window the
// session has opened.
func TestSessionResetEqualsFresh(t *testing.T) {
	topos := []arch.Topology{arch.TopoMesh, arch.TopoTorus, arch.TopoMeshDiag}
	bws := []arch.BandwidthClass{arch.BWUnit, arch.BWDouble, arch.BWBus, arch.BWNarrowRF}
	rng := lcg(31)
	s := new(Session)
	var bound scratchBound
	slots := map[int]bool{}
	acyclic, narrowed, routed, failed, congested := 0, 0, 0, 0, 0
	for step := 0; step < 120; step++ {
		f := arch.Fabric{CGRA: arch.Default(1+rng.next(8), 2+rng.next(7)),
			Topology: topos[rng.next(len(topos))], Bandwidth: bws[rng.next(len(bws))]}
		f.NumRegs = 2 + rng.next(6)
		ii := 1 + rng.next(8)
		g := mrrg.New(f, ii)
		if rng.next(4) == 0 {
			g = mrrg.NewAcyclic(f, ii)
			acyclic++
		}
		slots[g.SlotsPerPE()] = true
		tr := drawResetTrial(&rng, g)
		if tr.envelope != nil {
			narrowed++
		}
		what := fmt.Sprintf("step %d (%s %s %dx%d, %d regs, II %d, wrap %v)",
			step, f.Topology, f.Bandwidth, f.Rows, f.Cols, f.NumRegs, ii, g.Wrap)
		if step == 60 {
			// Both generation counters wrap during this trial.
			s.markGen, s.sc.gen = math.MaxUint32-1, math.MaxUint32-1
		}
		got := tr.run(t, s.Reset(g), &bound, what)
		fresh := NewSession(g)
		want := tr.run(t, fresh, &scratchBound{}, what)
		for i := range want { // both logs have one entry per search and round
			if got[i] != want[i] {
				t.Fatalf("%s: reset session diverged from a fresh one:\n got %s\nwant %s", what, got[i], want[i])
			}
		}
		if !reflect.DeepEqual(s.occ, fresh.occ) || !reflect.DeepEqual(s.hist, fresh.hist) {
			t.Fatalf("%s: occupancy or history of the reset session differs from a fresh one's", what)
		}
		if step == 60 && (s.markGen > 100 || s.sc.gen > 100) {
			t.Fatalf("%s: generations %d and %d did not wrap", what, s.markGen, s.sc.gen)
		}
		for _, e := range got {
			switch {
			case strings.HasSuffix(e, " <nil>"):
				routed++
			case strings.Contains(e, " sink "):
				failed++
			case strings.Contains(e, " over [") && !strings.Contains(e, " over []"):
				congested++
			}
		}
	}
	t.Logf("%d routed, %d failed, %d rounds ending oversubscribed", routed, failed, congested)
	if len(slots) < 6 || acyclic < 15 || narrowed < 20 || routed < 300 || failed < 100 || congested < 30 {
		t.Errorf("%d slot counts, %d acyclic graphs, %d narrowed envelopes, %d routed, %d failed, %d oversubscribed: the sequence no longer covers these",
			len(slots), acyclic, narrowed, routed, failed, congested)
	}
}

// TestResetAcrossSlotCounts alternates one session between a 20-slot and
// a 13-slot fabric (diagonal links and seven registers, the default mesh)
// with windows that grow and shrink, and holds every search to a fresh
// session's and the scratch to twice the largest window. A window with
// more cells but fewer slots regrows the per-cell stamps and not the
// per-node arrays, whose stamps from the other fabric must stay stale,
// and no slot change may regrow the scratch past that bound.
func TestResetAcrossSlotCounts(t *testing.T) {
	diag := arch.Fabric{CGRA: arch.Default(8, 8), Topology: arch.TopoMeshDiag}
	diag.NumRegs = 7
	graphs := []*mrrg.Graph{mrrg.New(diag, 8), mrrg.New(arch.DefaultFabric(8, 8), 8)}
	if graphs[0].SlotsPerPE() != 20 || graphs[1].SlotsPerPE() != 13 {
		t.Fatalf("slot counts %d and %d, want 20 and 13", graphs[0].SlotsPerPE(), graphs[1].SlotsPerPE())
	}
	s := new(Session)
	var bound scratchBound
	rng := lcg(13)
	cellsOnly := 0
	for step, dt := range []int{5, 12, 1, 2, 6, 3, 8, 16, 2, 1, 14, 4, 16, 7, 3, 10} {
		g := graphs[step%2]
		src := fu(rng.next(8), 2+rng.next(4), 2+rng.next(4))
		tr, tc := min(src.R+dt/2, 7), max(src.C-(dt-dt/2)+1, 0)
		grown := [2]int{len(s.sc.hopGen), len(s.sc.seen)}
		routeReusedAndFresh(t, s, g, &bound, src, tr, tc, dt, fmt.Sprintf("step %d (%d slots)", step, g.SlotsPerPE()))
		if len(s.sc.hopGen) != grown[0] && len(s.sc.seen) == grown[1] {
			cellsOnly++
		}
	}
	if cellsOnly == 0 {
		t.Errorf("no step regrew the cell stamps alone: the sequence no longer exercises stale node stamps")
	}
}

// TestResetMarkWrapClearsWholeCapacity: Reset re-slices the mark array
// of OversubscribedIn within its capacity, so when markGen wraps on a
// small graph the purge must reach the stamps beyond the small graph's
// keys too — a larger graph re-slices them back into view, and one equal
// to the restarted generation would hide an oversubscribed node.
func TestResetMarkWrapClearsWholeCapacity(t *testing.T) {
	big := mrrg.New(arch.DefaultFabric(8, 8), 8)
	// One net from (5,5) to its east neighbour, through an output
	// register something else already holds: that register is
	// oversubscribed, and its dense key lies far beyond a 1×2 graph's.
	problem := func(s *Session) []*Net {
		src := fu(5, 5, 5)
		s.Reserve(src)
		s.Reserve(mrrg.Node{T: 5, R: 5, C: 5, Class: mrrg.ClassOut, Idx: uint8(arch.East)})
		net := s.NewNet(src)
		if _, _, err := s.RouteSink(net, big.OperandTargets(6, 5, 6)); err != nil {
			t.Fatal(err)
		}
		return []*Net{net}
	}
	fresh := NewSession(big)
	want := fresh.OversubscribedIn(problem(fresh))
	if len(want) == 0 {
		t.Fatal("the problem oversubscribes nothing")
	}
	s := NewSession(big)
	nets := problem(s)
	s.OversubscribedIn(nets)
	s.OversubscribedIn(nets) // the net's keys now hold stamp 2
	s.Reset(mrrg.New(arch.DefaultFabric(1, 2), 1))
	s.markGen = math.MaxUint32
	s.OversubscribedIn(nil) // wraps: the next call stamps 2 again
	if got := s.Reset(big).OversubscribedIn(problem(s)); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a wrap on a smaller graph: oversubscribed %v, fresh session %v", got, want)
	}
}
