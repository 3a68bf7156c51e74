package route

import (
	"context"
	"errors"
	"slices"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
)

// drawPlacement places d on fab at II ii in topological order, each node
// one or two cycles after its latest producer on a PE within reach of
// its producers (by Manhattan distance, one hop per cycle) whose slot of
// the node's class is still free modulo ii. Loads start in cycle 0 or 1.
// It returns nil when a node finds no free slot.
func drawPlacement(rng *lcg, d *ir.DFG, fab arch.Fabric, ii int) []Placement {
	order, err := d.TopoOrder()
	if err != nil {
		return nil
	}
	type slot struct {
		kind    ir.OpKind
		t, r, c int
	}
	used := map[slot]bool{}
	class := func(k ir.OpKind) ir.OpKind {
		if k == ir.OpLoad || k == ir.OpStore {
			return k
		}
		return ir.OpAdd // every other kind takes the FU
	}
	pl := make([]Placement, len(d.Nodes))
	for _, id := range order {
		earliest := 0
		for _, ei := range d.InEdges(id) {
			earliest = max(earliest, pl[d.Edges[ei].From].T+1)
		}
		placed := false
		for t := earliest + rng.next(2); !placed && t < earliest+4; t++ {
			for try := 0; try < 4*fab.NumPEs(); try++ {
				r, c := rng.next(fab.Rows), rng.next(fab.Cols)
				reach := true
				for _, ei := range d.InEdges(id) {
					p := pl[d.Edges[ei].From]
					reach = reach && abs(p.R-r)+abs(p.C-c) <= t-p.T
				}
				k := slot{class(d.Nodes[id].Kind), t % ii, r, c}
				if reach && !used[k] {
					used[k] = true
					pl[id] = Placement{T: t, R: r, C: c}
					placed = true
					break
				}
			}
		}
		if !placed {
			return nil
		}
	}
	return pl
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestRouteDFGNegotiatesRounds routes placements of MVT's block-2 DFG on
// a 4x4 mesh at II 4 that one round leaves congested and more rounds
// resolve. Each round must start from the Reserve'd slots alone: after
// the rounds the session holds exactly the last round's nets, one per
// producer, and its occupancy equals the reservations plus those nets'
// charges. A round loop that skips Session.RipUp keeps every earlier
// round's paths charged, so no placement routes; one that drops the
// reservations with the nets fails the occupancy.
func TestRouteDFGNegotiatesRounds(t *testing.T) {
	_, d := blockDFG(t, "MVT", 2)
	fab := arch.DefaultFabric(4, 4)
	const ii = 4
	producers := 0
	for _, n := range d.Nodes {
		if n.Kind != ir.OpStore && len(d.OutEdges(n.ID)) > 0 {
			producers++
		}
	}
	ses := new(Session)
	rng := lcg(1)
	found := 0
	for trial := 0; trial < 40 && found < 3; trial++ {
		pl := drawPlacement(&rng, d, fab, ii)
		if pl == nil {
			continue
		}
		g := mrrg.New(fab, ii)
		ses.Reset(g)
		if _, err := RouteDFG(context.Background(), ses, d, pl, 1); !errors.Is(err, diag.ErrRouteCongested) {
			continue // one round settles it, or no round can
		}
		ses.Reset(g)
		if _, err := RouteDFG(context.Background(), ses, d, pl, 8); err != nil {
			continue
		}
		found++
		if got := len(ses.Nets()); got != producers {
			t.Fatalf("trial %d: %d live nets after the rounds, want the last round's %d", trial, got, producers)
		}
		want := NewSession(g)
		for id, n := range d.Nodes {
			switch n.Kind {
			case ir.OpLoad:
				want.Reserve(g.MemReadNode(pl[id].T, pl[id].R, pl[id].C))
			case ir.OpStore:
			default:
				want.Reserve(g.FUNode(pl[id].T, pl[id].R, pl[id].C))
			}
		}
		for _, net := range ses.Nets() {
			seen := map[mrrg.Node]bool{net.Src: true}
			for _, p := range net.Paths {
				for _, n := range p {
					if !seen[n] {
						seen[n] = true
						want.Reserve(n)
					}
				}
			}
		}
		if !slices.Equal(ses.occ, want.occ) {
			t.Fatalf("trial %d: the session's occupancy is not the reservations plus the live nets' paths", trial)
		}
	}
	if found < 3 {
		t.Fatalf("%d of 40 placements needed more than one round and routed in eight, want 3: the round loop is untested", found)
	}
}
