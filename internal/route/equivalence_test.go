package route

import (
	"fmt"
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

// congestDense charges what a late negotiation round leaves behind over
// the whole array: reserved output ports raise present-sharing
// penalties, history bumps on registers mimic prior rounds.
func congestDense(s *Session, rng *lcg, ii int) {
	f := s.G.Fab
	for i := 0; i < 5*f.NumPEs(); i++ {
		s.Reserve(mrrg.Node{
			T: rng.next(ii), R: rng.next(f.Rows), C: rng.next(f.Cols),
			Class: mrrg.ClassOut, Idx: uint8(rng.next(f.NumLinkDirs())),
		})
	}
	hist := s.history()
	for i := 0; i < 2*f.NumPEs(); i++ {
		hist[s.G.DenseKey(mrrg.Node{
			T: rng.next(ii), R: rng.next(f.Rows), C: rng.next(f.Cols),
			Class: mrrg.ClassReg, Idx: uint8(rng.next(f.NumRegs)),
		})] += histBump
	}
}

// TestSearchEquivalenceRandomizedCongestion is the router-core property
// test on fabrics small enough for every search to span the array: on
// mesh and torus, under dense random occupancy and history, RouteSink
// must return exactly the path, cost and error of the map-Dijkstra
// oracle (oracle_test.go) run on the same session first.
func TestSearchEquivalenceRandomizedCongestion(t *testing.T) {
	rng := lcg(0x9e3779b97f4a7c15)
	for _, topo := range []arch.Topology{arch.TopoMesh, arch.TopoTorus} {
		for _, sz := range [][2]int{{3, 3}, {4, 6}, {8, 8}} {
			f := arch.Fabric{CGRA: arch.Default(sz[0], sz[1]), Topology: topo}
			const ii = 8
			g := mrrg.New(f, ii)
			s := NewSession(g)
			for trial := 0; trial < 50; trial++ {
				s.Reset(g)
				congestDense(s, &rng, ii)
				src := fu(rng.next(ii), rng.next(f.Rows), rng.next(f.Cols))
				s.Reserve(src)
				net := s.NewNet(src)
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
					routeChecked(t, s, net, g.OperandTargets(src.T+dt, tr, tc),
						fmt.Sprintf("%s %v trial %d sink %d", topo, sz, trial, sink))
				}
			}
		}
	}
}

// TestSearchEquivalenceBandwidthModels extends the property to the
// bandwidth-constrained fabrics: the double-pumped and narrowed register
// files (RF capacities 2x and 1) and the shared bus (where every Out
// direction of a PE charges one occupancy slot).
func TestSearchEquivalenceBandwidthModels(t *testing.T) {
	rng := lcg(0xfeedface)
	for _, bw := range []arch.BandwidthClass{arch.BWDouble, arch.BWBus, arch.BWNarrowRF} {
		f := arch.Fabric{CGRA: arch.Default(4, 4), Bandwidth: bw}
		const ii = 8
		g := mrrg.New(f, ii)
		s := NewSession(g)
		for trial := 0; trial < 60; trial++ {
			s.Reset(g)
			congestDense(s, &rng, ii)
			src := fu(rng.next(ii), rng.next(f.Rows), rng.next(f.Cols))
			s.Reserve(src)
			net := s.NewNet(src)
			for sink := 0; sink < 2; sink++ {
				dt := 1 + rng.next(6)
				targets := g.OperandTargets(src.T+dt, rng.next(f.Rows), rng.next(f.Cols))
				routeChecked(t, s, net, targets, fmt.Sprintf("%s trial %d sink %d", bw, trial, sink))
			}
		}
	}
}
