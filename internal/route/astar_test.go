package route

import (
	"reflect"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// lcg is a tiny deterministic generator so the property trials are
// reproducible without the stdlib rand dependency surface.
type lcg uint64

func (r *lcg) next(n int) int {
	*r = *r*6364136223846793005 + 1442695040888963407
	return int(uint64(*r>>33) % uint64(n))
}

// TestSearchEquivalenceRandomizedCongestion is the router-core property
// test: on mesh and torus fabrics, under randomized occupancy and
// history costs, the A*+bucket-queue search must return exactly the
// path, cost, and error the legacy global-heap Dijkstra returns — the
// bit-identity contract exercised far beyond the kernel corpus.
func TestSearchEquivalenceRandomizedCongestion(t *testing.T) {
	rng := lcg(0x9e3779b97f4a7c15)
	for _, topo := range []arch.Topology{arch.TopoMesh, arch.TopoTorus} {
		for _, sz := range [][2]int{{3, 3}, {4, 6}, {8, 8}} {
			f := arch.Fabric{CGRA: arch.Default(sz[0], sz[1]), Topology: topo}
			const ii = 8
			g := mrrg.New(f, ii)
			old := NewSession(g)
			old.Legacy = true
			new_ := NewSession(g)
			for trial := 0; trial < 50; trial++ {
				old.Reset()
				new_.Reset()
				// Random congestion: reserved output ports raise present-
				// sharing penalties; history bumps mimic prior rounds.
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
				// Two short sinks per net, so the second search also
				// exercises zero-cost reuse of the first sink's owned nodes,
				// then two long holds — 8 to 16 cycles on the source's PE
				// or one or two hops off it, where HiMap's schedules keep
				// most values — seeded by the paths before them.
				for sink := 0; sink < 4; sink++ {
					dt := 1 + rng.next(6)
					tr, tc := rng.next(f.Rows), rng.next(f.Cols)
					if sink >= 2 {
						dt = 8 + rng.next(9)
						tr, tc = f.WrapCoord(src.R+rng.next(3)-1, src.C+rng.next(3)-1)
						tr, tc = min(max(tr, 0), f.Rows-1), min(max(tc, 0), f.Cols-1)
					}
					targets := g.OperandTargets(src.T+dt, tr, tc)
					op, oc, oerr := old.RouteSink(oldNet, targets)
					np, nc, nerr := new_.RouteSink(newNet, targets)
					if (oerr == nil) != (nerr == nil) {
						t.Fatalf("%s %v trial %d sink %d: Dijkstra err %v, A* err %v",
							topo, sz, trial, sink, oerr, nerr)
					}
					if oerr != nil {
						continue
					}
					if oc != nc {
						t.Fatalf("%s %v trial %d sink %d: cost %v (Dijkstra) != %v (A*)",
							topo, sz, trial, sink, oc, nc)
					}
					if !reflect.DeepEqual(op, np) {
						t.Fatalf("%s %v trial %d sink %d:\nDijkstra %v\nA*       %v",
							topo, sz, trial, sink, op, np)
					}
				}
			}
		}
	}
}

// TestTorusHeuristicNeverOverestimates checks admissibility directly on
// wrap-around fabrics: for random uncongested instances, the A* lower
// bound at the source — and at every node of the optimal path, against
// that node's true cost-to-go (shortest-path suffixes are shortest
// paths) — must not exceed the exact Dijkstra cost.
func TestTorusHeuristicNeverOverestimates(t *testing.T) {
	rng := lcg(1)
	for _, sz := range [][2]int{{3, 3}, {4, 6}, {8, 8}} {
		f := arch.Fabric{CGRA: arch.Default(sz[0], sz[1]), Topology: arch.TopoTorus}
		const ii = 8
		g := mrrg.New(f, ii)
		s := NewSession(g)
		s.Legacy = true      // exact reference costs, no heuristic in the search
		ref := NewSession(g) // stays empty: enterCost = uncongested base cost
		for trial := 0; trial < 100; trial++ {
			s.Reset()
			src := fu(rng.next(ii), rng.next(f.Rows), rng.next(f.Cols))
			s.Reserve(src)
			net := s.NewNet(src)
			dt := 1 + rng.next(6)
			targets := g.OperandTargets(src.T+dt, rng.next(f.Rows), rng.next(f.Cols))
			path, cost, err := s.RouteSink(net, targets)
			if err != nil {
				continue
			}
			tBase, maxT := src.T, src.T
			for _, tg := range targets {
				if tg.T < tBase {
					tBase = tg.T
				}
				if tg.T > maxT {
					maxT = tg.T
				}
			}
			// Suffix costs along the optimal path are exact costs-to-go.
			w := window{tBase: tBase, maxT: maxT, rows: f.Rows, cols: f.Cols, slots: g.SlotsPerPE()}
			for i := 0; i < len(path); i++ {
				togo := 0.0
				for j := i + 1; j < len(path); j++ {
					togo += ref.enterCost(path[j])
				}
				h := boundAt(s, w, targets, path[i])
				if h < 0 {
					t.Fatalf("%v trial %d: heuristic pruned path node %v with cost-to-go %v",
						sz, trial, path[i], togo)
				}
				if h > togo+1e-9 {
					t.Fatalf("%v trial %d: heuristic at %v overestimates: h = %v > cost-to-go %v (total %v)",
						sz, trial, path[i], h, togo, cost)
				}
			}
		}
	}
}
