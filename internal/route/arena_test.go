package route

import (
	"reflect"
	"slices"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// grown keeps what TestPathArenaContract appends to a returned path, so
// the append is not dropped as dead.
var grown Path

// TestPathArenaContract routes a seeded sequence of 50 negotiation rounds
// on one session over an 8x8 mesh — up to 17 nets of one to three sinks
// each, the bound rising over 17 rounds and dropping back, so rounds
// grow and shrink — and holds the path arena to
// the contract HiMap's rounds and RouteDFG rely on:
//   - every returned Path's capacity is its length, and appending to the
//     previous path leaves the one just carved after it unchanged;
//   - a round's paths keep their nodes until ResetKeepHistory rewinds
//     the arena and recycles the round's nets, however many searches ran
//     after them;
//   - the arena stays within twice the path nodes of the largest round.
func TestPathArenaContract(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(8, 8), 8)
	s := NewSession(g)
	rng := lcg(5)
	junk := mrrg.Node{T: -1, R: -1, C: -1}
	largest, regrown, shrank := 0, 0, 0
	for round := 0; round < 50; round++ {
		s.ResetKeepHistory()
		var paths, copies []Path
		nodes, before := 0, cap(s.arena)
		for n := 1 + rng.next(1+round%17); n > 0; n-- {
			src := fu(rng.next(8), rng.next(8), rng.next(8))
			s.Reserve(src)
			net := s.NewNet(src)
			for k := 1 + rng.next(3); k > 0; k-- {
				p, _, err := s.RouteSink(net, g.OperandTargets(src.T+1+rng.next(6), rng.next(8), rng.next(8)))
				if err != nil {
					continue // a sink out of reach in time carves nothing
				}
				if cap(p) != len(p) {
					t.Fatalf("round %d: path of %d nodes has capacity %d", round, len(p), cap(p))
				}
				want := slices.Clone(p)
				if len(paths) > 0 {
					grown = append(paths[len(paths)-1], junk)
				}
				if !reflect.DeepEqual(p, want) {
					t.Fatalf("round %d: appending to the previous path rewrote the next one:\n got %v\nwant %v", round, p, want)
				}
				paths, copies = append(paths, p), append(copies, want)
				nodes += len(p)
			}
		}
		for i := range paths {
			if !reflect.DeepEqual(paths[i], copies[i]) {
				t.Fatalf("round %d: path %d of %d changed before the rewind:\n got %v\nwant %v", round, i, len(paths), paths[i], copies[i])
			}
		}
		if nodes < largest {
			shrank++
		}
		largest = max(largest, nodes)
		if cap(s.arena) != before {
			regrown++
		}
		if cap(s.arena) > 2*largest {
			t.Fatalf("round %d: arena holds %d nodes, more than twice the largest round's %d", round, cap(s.arena), largest)
		}
	}
	t.Logf("largest round %d path nodes, arena %d, %d regrowths, %d rounds smaller than an earlier one", largest, cap(s.arena), regrown, shrank)
	if regrown < 4 || shrank < 25 {
		t.Errorf("%d regrowths, %d rounds smaller than an earlier one: the sequence no longer exercises growth and reuse", regrown, shrank)
	}
}
