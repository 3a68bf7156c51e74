package route

import (
	"reflect"
	"slices"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// TestSessionOwnsNets holds the session to the net lifetime contract
// every routing loop relies on, on an 8×8, II 8 mesh with four
// interleaved nets of three sinks each:
//   - a net from NewNet keeps its ID, source, paths and charged nodes
//     across later RouteSink calls on other nets, and Nets lists the live
//     nets in creation order;
//   - recycled nets route as fresh ones: after ResetKeepHistory and
//     after RipUp the same nets re-route to the same paths and costs;
//   - RipUp leaves exactly the Reserve'd occupancy and keeps the net
//     numbering, where ResetKeepHistory restarts it;
//   - after Reset, ResetKeepHistory and RipUp, starting the same number
//     of nets again allocates nothing: the session recycled them.
func TestSessionOwnsNets(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(8, 8), 8)
	s := NewSession(g)
	srcs := []mrrg.Node{fu(0, 1, 1), fu(0, 6, 6), fu(1, 1, 6), fu(1, 6, 1)}
	// Each net's sinks, as (cycle, rows, columns) past its source, towards
	// the middle of the array.
	sinks := [][3]int{{2, 1, 0}, {4, 1, 1}, {6, 0, 2}}
	type routed struct {
		paths []Path
		costs []float64
	}
	reserved := func() []int32 {
		fresh := NewSession(g)
		for _, src := range srcs {
			fresh.Reserve(src)
		}
		return fresh.occ
	}()
	routeAll := func(what string) []routed {
		nets := make([]*Net, len(srcs))
		for i, src := range srcs {
			nets[i] = s.NewNet(src)
		}
		if !slices.Equal(s.Nets(), nets) {
			t.Fatalf("%s: live nets %v, want the %d just started", what, s.Nets(), len(nets))
		}
		out := make([]routed, len(nets))
		for _, k := range sinks { // one sink of every net, then the next
			for i, net := range nets {
				dr, dc := inward(net.Src.R), inward(net.Src.C)
				p, cost, err := s.RouteSink(net, g.OperandTargets(net.Src.T+k[0], net.Src.R+dr*k[1], net.Src.C+dc*k[2]))
				if err != nil {
					t.Fatalf("%s: net %d to %v: %v", what, net.ID, k, err)
				}
				out[i].paths = append(out[i].paths, slices.Clone(p))
				out[i].costs = append(out[i].costs, cost)
			}
		}
		for i, net := range nets {
			if net.Src != srcs[i] || !reflect.DeepEqual(net.Paths, out[i].paths) {
				t.Fatalf("%s: net %d (src %v, paths %v) changed under later searches: want src %v, paths %v",
					what, net.ID, net.Src, net.Paths, srcs[i], out[i].paths)
			}
			nodes := heldKeys(net)
			for _, p := range out[i].paths {
				for _, n := range p {
					if !nodes[mrrg.RealKey(n)] {
						t.Fatalf("%s: net %d lost %v", what, net.ID, n)
					}
				}
			}
		}
		return out
	}

	for _, src := range srcs {
		s.Reserve(src)
	}
	first := routeAll("first routing")
	s.ResetKeepHistory()
	for _, src := range srcs {
		s.Reserve(src)
	}
	if again := routeAll("after ResetKeepHistory"); !reflect.DeepEqual(again, first) {
		t.Fatalf("after ResetKeepHistory the recycled nets routed\n %v\nnot as at first\n %v", again, first)
	}
	if ids := []int{s.Nets()[0].ID, s.Nets()[len(srcs)-1].ID}; ids[0] != 1 || ids[1] != len(srcs) {
		t.Fatalf("ResetKeepHistory's round numbered its nets %d..%d, want 1..%d", ids[0], ids[1], len(srcs))
	}
	s.RipUp()
	if len(s.Nets()) != 0 || len(s.arena) != 0 {
		t.Fatalf("RipUp left %d live nets and %d arena nodes", len(s.Nets()), len(s.arena))
	}
	if !slices.Equal(s.occ, reserved) {
		t.Fatal("RipUp left occupancy other than the reservations")
	}
	if again := routeAll("after RipUp"); !reflect.DeepEqual(again, first) {
		t.Fatalf("after RipUp the nets routed\n %v\nnot as at first\n %v", again, first)
	}
	if id := s.Nets()[0].ID; id != len(srcs)+1 {
		t.Fatalf("the first net after RipUp is numbered %d, want %d", id, len(srcs)+1)
	}

	for _, r := range []struct {
		what    string
		recycle func()
	}{
		{"Reset", func() { s.Reset(g) }},
		{"ResetKeepHistory", s.ResetKeepHistory},
		{"RipUp", s.RipUp},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			r.recycle()
			for _, src := range srcs {
				s.NewNet(src)
			}
		})
		if allocs != 0 {
			t.Errorf("NewNet after %s: %v allocations, want 0", r.what, allocs)
		}
	}
}

// inward is the step from coordinate x of an 8-wide array towards its
// middle.
func inward(x int) int {
	if x < 4 {
		return 1
	}
	return -1
}

// heldKeys is the set of real-keyed resource nodes a net occupies: its
// source and every node it charged.
func heldKeys(n *Net) map[uint64]bool {
	m := map[uint64]bool{n.srcKey: true}
	for _, k := range n.keys {
		m[k] = true
	}
	return m
}
