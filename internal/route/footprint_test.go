package route

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// footprintSlack is what TestSessionFootprint allows beside the search
// scratch and the occupancy array: the path arena, the nets and their
// lists, the bucket heaps, the hop cache, the slot table and the
// OversubscribedIn buffers of a handful of short nets.
const footprintSlack = 64 << 10

// TestSessionFootprint routes a fixed net sequence on a fresh session
// over a 16×16, II 8 mesh with the envelope narrowed to four by four PEs
// around the sources — canonical routing's shape — through one
// congestion-free round and one that ends oversubscribed, and holds the
// session to what its searches read:
//   - every search window lies inside the envelope, though the sinks are
//     up to seven cycles out and the array is sixteen PEs wide;
//   - until the first BumpHistory that finds an oversubscribed node the
//     session holds no history storage, and after it, it does;
//   - what the sequence allocates before that bump stays within twice
//     20 bytes per node of the largest window (begin's doubling), 4 bytes
//     per dense key (occupancy) and footprintSlack.
func TestSessionFootprint(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(16, 16), 8)
	env := Box{R0: 6, R1: 9, C0: 6, C1: 9}
	type sink struct{ t, r, c int }
	nets := []struct {
		src   mrrg.Node
		sinks []sink
	}{
		{fu(0, 6, 6), []sink{{3, 6, 8}, {7, 9, 9}}},
		{fu(1, 9, 6), []sink{{4, 8, 7}, {6, 6, 7}}},
		{fu(2, 7, 9), []sink{{5, 9, 8}, {8, 6, 9}}},
	}
	// The output register a value from the FU of PE (7, 7) at cycle 3 must
	// take to reach PE (7, 8) a cycle later; the last round holds it
	// before routing that value through it.
	hot := mrrg.Node{T: 3, R: 7, C: 7, Class: mrrg.ClassOut, Idx: uint8(arch.East)}
	lookaheadFor(16) // the process-wide table, whatever built it, is not the session's

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSession(g)
	s.Envelope = env
	var routed []*Net
	maxNodes, outside := 0, 0
	round := func(congest bool) {
		s.ResetKeepHistory()
		routed = routed[:0]
		for _, n := range nets {
			s.Reserve(n.src)
		}
		for _, n := range nets {
			net := s.NewNet(n.src)
			routed = append(routed, net)
			for _, k := range n.sinks {
				if _, _, err := s.RouteSink(net, g.OperandTargets(k.t, k.r, k.c)); err != nil {
					t.Fatalf("net from %v to %v: %v", n.src, k, err)
				}
				w := &s.sc.w
				if w.r0 < env.R0 || w.r0+w.rows-1 > env.R1 || w.c0 < env.C0 || w.c0+w.cols-1 > env.C1 {
					outside++
				}
				maxNodes = max(maxNodes, w.cells()*w.slots)
			}
		}
		if congest {
			src := fu(hot.T, hot.R, hot.C)
			s.Reserve(src)
			s.Reserve(hot)
			net := s.NewNet(src)
			routed = append(routed, net)
			if _, _, err := s.RouteSink(net, g.OperandTargets(hot.T+1, hot.R, hot.C+1)); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(s.Nets(), routed) {
			t.Fatalf("the session's live nets %v are not the %d the round started", s.Nets(), len(routed))
		}
	}
	round(false)
	if over := s.BumpHistory(routed); len(over) != 0 {
		t.Fatalf("the first round oversubscribes %v", over)
	}
	round(true)
	runtime.ReadMemStats(&after)
	if outside > 0 {
		t.Errorf("%d search windows reach outside the envelope %v", outside, env)
	}
	if s.hist != nil {
		t.Errorf("%d history entries before any bump found congestion", len(s.hist))
	}
	if over := s.BumpHistory(routed); len(over) != 1 || len(s.hist) != g.NumDenseKeys() || s.Hist(hot) != histBump {
		t.Fatalf("congested round: oversubscribed %v, %d history entries (want 1 and %d), history of %v %v",
			over, len(s.hist), g.NumDenseKeys(), hot, s.Hist(hot))
	}

	bytes := after.TotalAlloc - before.TotalAlloc
	bound := 2*20*maxNodes + 4*g.NumDenseKeys() + footprintSlack
	t.Logf("%d bytes allocated; largest window %d nodes, %d dense keys, bound %d", bytes, maxNodes, g.NumDenseKeys(), bound)
	if bytes > uint64(bound) {
		t.Errorf("the sequence allocated %d bytes, more than 2×20×%d + 4×%d + %d = %d",
			bytes, maxNodes, g.NumDenseKeys(), footprintSlack, bound)
	}
}

// mapOversubscribed restates OversubscribedIn with a map: walk the nets'
// paths in order, and report a node the first time its dense key comes
// up if the key's occupancy exceeds the class's capacity.
func mapOversubscribed(s *Session, nets []*Net) []mrrg.Node {
	seen := map[int]bool{}
	var out []mrrg.Node
	for _, net := range nets {
		for _, p := range net.Paths {
			for _, n := range p {
				k := s.G.DenseKey(n)
				if !seen[k] {
					seen[k] = true
					if s.Occ(n) > s.G.Capacity(n.Class) {
						out = append(out, n)
					}
				}
			}
		}
	}
	return out
}

// TestOversubscribedInMatchesMap holds OversubscribedIn, and the list
// BumpHistory returns, to mapOversubscribed on random congested sessions
// over 8×8 mesh, torus and shared-bus fabrics: nets of up to three sinks
// routed under random occupancy, handed over in routing order with some
// nets listed twice. Each key must come once, in first-seen order — the
// count and the first node are what a congested compile's error reports.
func TestOversubscribedInMatchesMap(t *testing.T) {
	const ii = 4
	bus := arch.DefaultFabric(8, 8)
	bus.Bandwidth = arch.BWBus
	rng := lcg(35)
	for _, f := range []arch.Fabric{arch.DefaultFabric(8, 8), {CGRA: arch.Default(8, 8), Topology: arch.TopoTorus}, bus} {
		g := mrrg.New(f, ii)
		s := NewSession(g)
		long, repeated := 0, 0
		for trial := 0; trial < 40; trial++ {
			s.Reset(g)
			for i := 0; i < 12*f.NumPEs(); i++ {
				s.Reserve(mrrg.Node{T: rng.next(ii), R: rng.next(f.Rows), C: rng.next(f.Cols), Class: mrrg.ClassOut, Idx: uint8(rng.next(f.NumLinkDirs()))})
				s.Reserve(mrrg.Node{T: rng.next(ii), R: rng.next(f.Rows), C: rng.next(f.Cols), Class: mrrg.ClassRFWrite})
			}
			var nets []*Net
			for n := 4 + rng.next(12); n > 0; n-- {
				src := fu(rng.next(ii), rng.next(f.Rows), rng.next(f.Cols))
				s.Reserve(src)
				net := s.NewNet(src)
				for k := 1 + rng.next(3); k > 0; k-- {
					s.RouteSink(net, g.OperandTargets(src.T+1+rng.next(5), rng.next(f.Rows), rng.next(f.Cols)))
				}
				nets = append(nets, net)
				if rng.next(4) == 0 {
					nets = append(nets, nets[rng.next(len(nets))])
				}
			}
			what := fmt.Sprintf("%s %s trial %d", f.Topology, f.Bandwidth, trial)
			want := mapOversubscribed(s, nets)
			if got := s.OversubscribedIn(nets); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: OversubscribedIn\n %v\nmap restatement\n %v", what, got, want)
			}
			if got := s.BumpHistory(nets); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: BumpHistory\n %v\nmap restatement\n %v", what, got, want)
			}
			occurrences := 0
			for _, net := range nets {
				for _, p := range net.Paths {
					for _, n := range p {
						if s.Occ(n) > g.Capacity(n.Class) {
							occurrences++
						}
					}
				}
			}
			if len(want) >= 5 {
				long++
			}
			if occurrences > len(want) {
				repeated++
			}
		}
		t.Logf("%s %s: %d lists of five or more, %d with a key repeated", f.Topology, f.Bandwidth, long, repeated)
		if long < 15 || repeated < 15 {
			t.Errorf("%s %s: %d lists of five or more, %d with a key repeated — the trials no longer cover these",
				f.Topology, f.Bandwidth, long, repeated)
		}
	}
}
