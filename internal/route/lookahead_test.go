package route

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// openBounds opens a search over window w for targets and returns the A*
// bound of any node of the window.
func openBounds(s *Session, w window, targets []mrrg.Node) func(mrrg.Node) float64 {
	s.sc.begin(w)
	s.openLookahead(targets)
	return func(n mrrg.Node) float64 {
		c := s.cellAt(n.T, n.R, n.C)
		return s.costToGo(&c, s.G.SlotIndex(n.Class, n.Idx))
	}
}

func boundAt(s *Session, w window, targets []mrrg.Node, n mrrg.Node) float64 {
	return openBounds(s, w, targets)(n)
}

// lookaheadFabrics are the 12×12 fabrics the table is checked on: the
// three link topologies and the shared-bus bandwidth class.
func lookaheadFabrics() []arch.Fabric {
	const side = 12
	bus := arch.DefaultFabric(side, side)
	bus.Bandwidth = arch.BWBus
	return []arch.Fabric{
		arch.DefaultFabric(side, side),
		{CGRA: arch.Default(side, side), Topology: arch.TopoMeshDiag},
		{CGRA: arch.Default(side, side), Topology: arch.TopoTorus},
		bus,
	}
}

// randomTargets draws one of the target sets the mappers hand RouteSink,
// around PE (r, c) and cycle t: an operand set, a single Out or Reg pin,
// or a store set (write ports of a few PEs over a few cycles).
func randomTargets(g *mrrg.Graph, rng *lcg, t, r, c int) []mrrg.Node {
	f := g.Fab
	switch rng.next(4) {
	case 0:
		for {
			d := rng.next(f.NumLinkDirs())
			if _, _, ok := f.LinkNeighbor(r, c, arch.Dir(d)); ok {
				return []mrrg.Node{{T: t, R: r, C: c, Class: mrrg.ClassOut, Idx: uint8(d)}}
			}
		}
	case 1:
		return []mrrg.Node{{T: t, R: r, C: c, Class: mrrg.ClassReg, Idx: uint8(rng.next(f.NumRegs))}}
	case 2:
		var out []mrrg.Node
		for dt := 0; dt <= rng.next(3); dt++ {
			for dc := 0; dc <= rng.next(2); dc++ {
				out = append(out, g.MemWriteNode(t-dt, r, min(c+dc, f.Cols-1)))
			}
		}
		return out
	}
	return g.OperandTargets(t, r, c)
}

// randomNode draws a node of any class at PE (r, c), cycle t.
func randomNode(g *mrrg.Graph, rng *lcg, t, r, c int) mrrg.Node {
	cl, idx := g.SlotResource(rng.next(g.SlotsPerPE()))
	return mrrg.Node{T: t, R: r, C: c, Class: cl, Idx: idx}
}

// TestLookaheadConsistentAlongSucc checks the table against mrrg.Succ
// itself, sharing no arithmetic with the pass that fills it: for random
// nodes of every class and random target sets, h(n) ≤ base(m) + h(m)
// along every Succ edge — an unreachable n (h = -1, pruned) must have
// only unreachable successors — and h(target) = 0.
func TestLookaheadConsistentAlongSucc(t *testing.T) {
	const ii, span = 8, 14
	rng := lcg(24)
	for _, f := range lookaheadFabrics() {
		g := mrrg.New(f, ii)
		s := NewSession(g)
		classes := map[mrrg.Class]int{}
		edges := 0
		for trial := 0; trial < 60; trial++ {
			tr, tc := rng.next(f.Rows), rng.next(f.Cols)
			maxT := span - rng.next(3)
			targets := randomTargets(g, &rng, maxT, tr, tc)
			w := window{tBase: 0, maxT: maxT, rows: f.Rows, cols: f.Cols, slots: g.SlotsPerPE()}
			h := openBounds(s, w, targets)
			for _, tg := range targets {
				if got := h(tg); got != 0 {
					t.Fatalf("%v trial %d: h(target %v) = %v, want 0", f, trial, tg, got)
				}
			}
			for k := 0; k < 80; k++ {
				// Mostly within reach of the target, where h is finite.
				reach := 1 + rng.next(8)
				n := randomNode(g, &rng, maxT-rng.next(reach+2),
					min(max(tr+rng.next(2*reach+1)-reach, 0), f.Rows-1),
					min(max(tc+rng.next(2*reach+1)-reach, 0), f.Cols-1))
				if n.T < 0 {
					continue
				}
				hn := h(n)
				classes[n.Class]++
				g.Succ(n, func(m mrrg.Node) {
					if m.T > maxT {
						return
					}
					edges++
					hm := h(m)
					if hm < 0 {
						return // an unreachable successor bounds nothing
					}
					if hn < 0 {
						t.Fatalf("%v trial %d targets %v: %v is pruned (h = -1) but its successor %v has h = %v", f, trial, targets, n, m, hm)
					}
					if hn > oracleBase[m.Class]+hm+1e-9 {
						t.Fatalf("%v trial %d targets %v: h(%v) = %v > base %v + h(%v) = %v", f, trial, targets, n, hn, oracleBase[m.Class], m, hm)
					}
				})
			}
		}
		if len(classes) != mrrg.NumClasses || edges < 5000 {
			t.Errorf("%v: %d classes, %d edges checked — the draw no longer covers the graph", f, len(classes), edges)
		}
	}
}

// TestLookaheadExactOnEmptySession is what fails when a recurrence is
// wrong in the cheap direction: on an empty session, away from the array
// edge, the bound at a source equals the cost the map-Dijkstra oracle
// finds for it — and is -1 exactly where the oracle finds no path.
func TestLookaheadExactOnEmptySession(t *testing.T) {
	const ii = 8
	rng := lcg(2024)
	for _, f := range lookaheadFabrics() {
		g := mrrg.New(f, ii)
		s := NewSession(g)
		routed, unreachable, long := 0, 0, 0
		for trial := 0; trial < 48; trial++ {
			dt := 1 + rng.next(6)
			if trial%8 == 0 {
				dt = 12 + rng.next(9) // up to 20 cycles
				long++
			}
			// Up to dt+1 hops out (one beyond reach now and then), kept to
			// the middle of the array: an edge removes real edges only.
			hops := rng.next(min(dt, 3) + 2)
			hr := rng.next(hops + 1)
			sr, sc := 4+rng.next(4), 4+rng.next(4)
			tr, tc := sr+hr*(2*rng.next(2)-1), sc+(hops-hr)*(2*rng.next(2)-1)
			// A producer, as every net's source is: an Out or Reg source
			// on a pin's own PE could hold its way to the wrong direction
			// or register, which the table does not tell apart.
			src := fu(0, sr, sc)
			if rng.next(3) == 0 {
				src = g.MemReadNode(0, sr, sc)
			}
			targets := randomTargets(g, &rng, dt, tr, tc)
			net := s.NewNet(src)
			_, want, ok := mapDijkstra(s, net, targets)
			w := s.searchWindow(net, targets)
			got := boundAt(s, w, targets, src)
			switch {
			case !ok && got != -1:
				t.Fatalf("%v trial %d: %v → %v: oracle finds no path, h = %v", f, trial, src, targets, got)
			case ok && math.Abs(got-want) > 1e-9:
				t.Fatalf("%v trial %d: %v → %v: h = %v, oracle cost %v", f, trial, src, targets, got, want)
			case ok:
				routed++
			default:
				unreachable++
			}
		}
		if routed < 20 || unreachable < 3 || long < 5 {
			t.Errorf("%v: %d routed, %d unreachable, %d long — the trial mix no longer covers both outcomes", f, routed, unreachable, long)
		}
	}
}

// TestLookaheadGrowthSharedAcrossSessions routes a 3-cycle and then a
// 40-cycle sink — past the table's first depth — from four goroutines
// whose sessions share the process-wide table (run under -race), and
// requires every path to match a fresh session's that only ever saw the
// grown table. The table starts absent, as in a new process, whatever
// the tests before this one grew it to.
func TestLookaheadGrowthSharedAcrossSessions(t *testing.T) {
	const ii = 8
	f := arch.DefaultFabric(8, 8)
	g := mrrg.New(f, ii)
	lookaheads.Lock()
	lookaheads.la = nil
	lookaheads.Unlock()
	route := func(s *Session, k int) []Path {
		src := fu(0, 2+k, 3)
		s.Reserve(src)
		net := s.NewNet(src)
		var paths []Path
		for _, tg := range [][3]int{{3, 3 + k, 4}, {40, 2 + k, 5}} {
			p, _, err := s.RouteSink(net, g.OperandTargets(tg[0], tg[1], tg[2]))
			if err != nil {
				t.Errorf("goroutine %d: %v", k, err)
			}
			paths = append(paths, p)
		}
		return paths
	}
	var wg sync.WaitGroup
	got := make([][]Path, 4)
	for k := range got {
		s := NewSession(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = route(s, k)
			if s.la.depth < 40 {
				t.Errorf("goroutine %d: table depth %d after a 40-cycle search", k, s.la.depth)
			}
		}()
	}
	wg.Wait()
	for k := range got {
		if want := route(NewSession(g), k); !reflect.DeepEqual(got[k], want) {
			t.Errorf("goroutine %d routed\n %v\nfresh session\n %v", k, got[k], want)
		}
	}
}

// TestLongHoldVisitBudget pins what the lookahead is for: a value held in
// place for most of II_B is found without flooding the window. Waiting a
// cycle costs 0.6 (Reg) or 1.0 (Out hold); a bound that credits less
// expands every node within the difference of optimal — 612 closed nodes
// for the 8-cycle hold below under the closed form 0.7·hops + 0.3·Δcycles.
//
// MaxVisits outcomes cannot change with the bound: both bounds are
// consistent and give targets h = 0, so the first target popped is the
// same, and a node closed before it under the tighter bound h₂ ≥ h₁ has
// (g + h₁, key) ≤ (g + h₂, key) below the target's — it was closed under
// h₁ too. A search that finished within the limit still does.
func TestLongHoldVisitBudget(t *testing.T) {
	g := mrrg.New(arch.Fabric{CGRA: arch.Default(8, 8), Topology: arch.TopoMeshDiag}, 8)
	for _, tc := range []struct{ hold, budget int }{{8, 80}, {12, 120}} {
		s := NewSession(g)
		src := g.MemReadNode(-1, 0, 0)
		s.Reserve(src)
		pin := mrrg.Node{T: tc.hold - 1, R: 0, C: 0, Class: mrrg.ClassOut, Idx: uint8(arch.South)}
		path, _, err := s.RouteSink(s.NewNet(src), []mrrg.Node{pin})
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != tc.hold+4 { // MRD, RFW, a register per cycle, RFR, OUT.S
			t.Errorf("%d-cycle hold routed as %v", tc.hold, path)
		}
		if s.closedNodes > tc.budget {
			t.Errorf("%d-cycle hold closed %d nodes, budget %d", tc.hold, s.closedNodes, tc.budget)
		}
		t.Logf("%d-cycle hold: %d nodes closed", tc.hold, s.closedNodes)
	}
}
