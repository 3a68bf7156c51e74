package route

import (
	"errors"
	"reflect"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// slotPrice prices entering n the way relax does: from the slot table
// NewSession fills, at the node's occupancy key.
func slotPrice(s *Session, n mrrg.Node) float64 {
	si := &s.slotTab[s.G.SlotIndex(n.Class, n.Idx)]
	return s.price(si.base, si.cap, s.G.DenseKey(n))
}

// TestSlotTablePricesOracleFormula holds the table NewSession fills to
// the oracle's first-principles price (oracle_test.go) on every
// bandwidth class, for every node class under random occupancy and
// history: a capacity or base cost filled from the wrong class, or an RF
// port count the bandwidth class should have narrowed, prices some node
// differently.
func TestSlotTablePricesOracleFormula(t *testing.T) {
	const ii = 6
	rng := lcg(7)
	for _, bw := range []arch.BandwidthClass{arch.BWUnit, arch.BWDouble, arch.BWBus, arch.BWNarrowRF} {
		f := arch.Fabric{CGRA: arch.Default(4, 4), Bandwidth: bw}
		g := mrrg.New(f, ii)
		s := NewSession(g)
		for trial := 0; trial < 1000; trial++ {
			n := randomNode(g, &rng, rng.next(ii), rng.next(f.Rows), rng.next(f.Cols))
			key := g.DenseKey(n)
			s.occ[key] = int32(rng.next(6))
			s.hist[key] = float64(rng.next(10)) * s.HistBump
			if got, want := slotPrice(s, n), oraclePrice(s, n); got != want {
				t.Fatalf("%s trial %d %v occ=%d hist=%v: slot table prices %v, the formula %v",
					bw, trial, n, s.occ[key], s.hist[key], got, want)
			}
			if over := s.OversubscribedIn([]*Net{{Paths: []Path{{n}}}}); (len(over) == 1) != (int(s.occ[key]) > g.Capacity(n.Class)) {
				t.Fatalf("%s trial %d %v occ=%d: OversubscribedIn = %v, capacity %d",
					bw, trial, n, s.occ[key], over, g.Capacity(n.Class))
			}
		}
	}
}

// TestDoublePumpedRFPricing checks the bandwidth classes' point: with a
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
	if got := slotPrice(s, n); got != 0.3 {
		t.Fatalf("empty RF write port enter cost %v, want 0.3", got)
	}
	s.occ[key] = 3
	if got := slotPrice(s, n); got != 0.3 {
		t.Errorf("fourth occupant priced %v on a double-pumped 2-port RF, want congestion-free 0.3", got)
	}
	s.occ[key] = 4
	want := 0.3 * (1 + 1*s.PresFac)
	if got := slotPrice(s, n); got != want {
		t.Errorf("fifth occupant priced %v, want %v", got, want)
	}

	out := mrrg.Node{T: 0, R: 1, C: 1, Class: mrrg.ClassOut, Idx: 0}
	okey := g.DenseKey(out)
	s.occ[okey] = 1
	if got, want := slotPrice(s, out), 1.0*(1+1*s.PresFac); got != want {
		t.Errorf("second link occupant priced %v, want congested %v (links are single-lane in every class)", got, want)
	}
}

// TestSearchLimit pins Session.MaxVisits, the one failure negotiation
// treats as able to end differently next round: a search that would close
// more nodes than the limit before its first target returns
// ErrSearchLimit and charges nothing, one within the limit routes as if
// there were none — and there is exactly one limit where that changes.
func TestSearchLimit(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(8, 8), 8)
	src := fu(0, 2, 2)
	targets := g.OperandTargets(6, 5, 4)
	route := func(limit int) (*Session, Path, error) {
		s := NewSession(g)
		if limit > 0 {
			s.MaxVisits = limit
		}
		s.Reserve(src)
		path, _, err := s.RouteSink(s.NewNet(src), targets)
		return s, path, err
	}
	free, want, err := route(0)
	if err != nil {
		t.Fatal(err)
	}
	need := 0 // the least limit that routes
	for limit := 1; limit <= free.closedNodes; limit++ {
		s, path, err := route(limit)
		if err == nil {
			if need == 0 {
				need = limit
			}
			if !reflect.DeepEqual(path, want) {
				t.Errorf("limit %d routed %v, no limit %v", limit, path, want)
			}
			continue
		}
		if need != 0 || !errors.Is(err, ErrSearchLimit) {
			t.Fatalf("limit %d (first routed at %d): %v", limit, need, err)
		}
		for _, n := range want[1:] {
			if s.Occ(n) != 0 {
				t.Fatalf("limit %d: the failed search left %v charged", limit, n)
			}
		}
	}
	// The source, the target and a node per cycle between them at the least.
	if need < len(want) || need > free.closedNodes {
		t.Errorf("first routed at limit %d; the path has %d nodes, the free search closed %d", need, len(want), free.closedNodes)
	}
}
