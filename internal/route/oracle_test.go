package route

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// The oracle below is the definition RouteSink must meet, written with
// none of its index arithmetic and none of its tables: a Dijkstra over
// mrrg.Graph.Succ whose whole state is maps keyed by RealKey, pricing
// each node from the base costs restated here. It knows nothing of
// windows, dense indices, row deltas, generations, slot tables or the
// lookahead, so a wrong one of those cannot hide in both.

// oracleBase restates the base-cost table independently, so a drifting
// baseCost fails loudly instead of both moving together.
var oracleBase = map[mrrg.Class]float64{
	mrrg.ClassFU:       1.0,
	mrrg.ClassOut:      1.0,
	mrrg.ClassReg:      0.6,
	mrrg.ClassRFRead:   0.3,
	mrrg.ClassRFWrite:  0.3,
	mrrg.ClassMemRead:  1.0,
	mrrg.ClassMemWrite: 1.0,
}

// oraclePrice is the cost of entering n for a net that does not own it,
// from first principles: the class's base cost, scaled by the present-
// sharing penalty once the entry would exceed the fabric's capacity for
// the class, plus the node's history cost.
func oraclePrice(s *Session, n mrrg.Node) float64 {
	key := s.G.DenseKey(n)
	cost := oracleBase[n.Class]
	if over := int(s.occ[key]) + 1 - s.G.Capacity(n.Class); over > 0 {
		cost *= 1 + float64(over)*s.PresFac
	}
	return cost + s.hist[key]
}

type oracleItem struct {
	cost float64
	n    mrrg.Node
}

type oracleHeap []oracleItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return mrrg.RealKey(h[i].n) < mrrg.RealKey(h[j].n)
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleItem)) }
func (h *oracleHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// mapDijkstra returns the path and cost RouteSink(net, targets) must
// return, or ok false where it must fail with ErrNoPath: pops in (cost,
// RealKey) order, of the predecessors offering a node the same cost the
// one with the smaller RealKey keeps the parent slot, nodes the net owns
// cost nothing to enter, nothing past the latest target and nothing on a
// PE outside s.Envelope is entered — a seed there stays a seed, and its
// links still lead in. It reads the session, and changes nothing.
//
// "The first relaxer keeps the slot" is the same rule wherever equal
// offers come from equal costs, since predecessors pop in (cost, key)
// order. Over a long hold they need not: two predecessors an ulp apart
// can offer one float once the sum rounds, and the long-hold sinks below
// reach such cases. The A* core has always broken them by key — the rule
// every golden mapping was produced under — so the definition says so.
func mapDijkstra(s *Session, net *Net, targets []mrrg.Node) (Path, float64, bool) {
	maxT := targets[0].T
	isTarget := map[uint64]bool{}
	for _, t := range targets {
		maxT = max(maxT, t.T)
		isTarget[mrrg.RealKey(t)] = true
	}
	dist := map[uint64]float64{}
	parent := map[uint64]mrrg.Node{}
	owned := map[uint64]bool{}
	closed := map[uint64]bool{}
	var h oracleHeap
	seed := func(n mrrg.Node) {
		if n.T > maxT {
			return
		}
		k := mrrg.RealKey(n)
		owned[k], dist[k] = true, 0
		delete(parent, k)
		heap.Push(&h, oracleItem{0, n})
	}
	seed(net.Src)
	for _, p := range net.Paths {
		for _, n := range p {
			seed(n)
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(&h).(oracleItem)
		k := mrrg.RealKey(it.n)
		if closed[k] {
			continue
		}
		closed[k] = true
		if isTarget[k] {
			path := Path{it.n}
			for {
				p, ok := parent[mrrg.RealKey(path[0])]
				if !ok {
					return path, it.cost, true
				}
				path = append(Path{p}, path...)
			}
		}
		s.G.Succ(it.n, func(m mrrg.Node) {
			mk := mrrg.RealKey(m)
			if m.T > maxT || closed[mk] || !s.Envelope.Holds(m.R, m.C) {
				return
			}
			nd := it.cost
			if !owned[mk] {
				nd += oraclePrice(s, m)
			}
			if old, seen := dist[mk]; !seen || nd < old {
				dist[mk] = nd
				parent[mk] = it.n
				heap.Push(&h, oracleItem{nd, m})
			} else if p, has := parent[mk]; nd == old && has && k < mrrg.RealKey(p) {
				parent[mk] = it.n
			}
		})
	}
	return nil, 0, false
}

// congest charges random occupancy (present-sharing penalties) and
// history (earlier rounds) to output and register-file resources within
// reach of (r, c), shifted by (dr, dc).
func congest(s *Session, rng *lcg, ii, r, c, reach, dr, dc int) {
	f := s.G.Fab
	pick := func() (int, int, int) {
		pr := min(max(r+rng.next(2*reach+1)-reach, 0), f.Rows-1-max(dr, 0))
		pc := min(max(c+rng.next(2*reach+1)-reach, 0), f.Cols-1-max(dc, 0))
		return rng.next(2 * ii), pr + dr, pc + dc
	}
	for i := 0; i < 6*reach*reach; i++ {
		t, pr, pc := pick()
		s.Reserve(mrrg.Node{T: t, R: pr, C: pc, Class: mrrg.ClassOut, Idx: uint8(rng.next(f.NumLinkDirs()))})
		t, pr, pc = pick()
		s.Reserve(mrrg.Node{T: t, R: pr, C: pc, Class: mrrg.ClassRFWrite})
	}
	for i := 0; i < 3*reach*reach; i++ {
		t, pr, pc := pick()
		s.hist[s.G.DenseKey(mrrg.Node{T: t, R: pr, C: pc, Class: mrrg.ClassReg, Idx: uint8(rng.next(f.NumRegs))})] += s.HistBump
		t, pr, pc = pick()
		s.hist[s.G.DenseKey(mrrg.Node{T: t, R: pr, C: pc, Class: mrrg.ClassOut, Idx: uint8(rng.next(f.NumLinkDirs()))})] += s.HistBump
	}
}

// routeChecked runs the oracle and then RouteSink on the same session and
// net, fails the test where they differ — path, cost, or which of them
// finds no path — and reports whether there was a path.
func routeChecked(t *testing.T, s *Session, net *Net, targets []mrrg.Node, what string) bool {
	t.Helper()
	wantPath, wantCost, ok := mapDijkstra(s, net, targets)
	path, cost, err := s.RouteSink(net, targets)
	switch {
	case !ok && !errors.Is(err, ErrNoPath):
		t.Fatalf("%s: oracle finds no path, RouteSink returned %v, %v", what, path, err)
	case ok && err != nil:
		t.Fatalf("%s: RouteSink failed (%v), oracle routes %v", what, err, wantPath)
	case ok && (cost != wantCost || !reflect.DeepEqual(path, wantPath)):
		t.Fatalf("%s (src %v, targets %v, envelope %v):\n got %v cost %v\nwant %v cost %v",
			what, net.Src, targets, s.Envelope, path, cost, wantPath, wantCost)
	}
	return ok
}

// TestRouteSinkMatchesMapDijkstra holds RouteSink to the oracle on
// fabrics large enough for the search window to be a small part of the
// array: sources in corners, on edges and in the interior, three sinks
// per net (so later searches seed from earlier paths) and now and then a
// long hold after them, targets both inside and beyond reach, under
// random occupancy and history. A sink is an operand set, a pinned Out
// or register, or a store set — the last two are what reach the outermost
// ring of the window. The bus fabric is the path where an Out's occupancy
// slot is not its slot.
//
// The second pass over each fabric narrows Session.Envelope once the
// first sink is routed, to a few PEs around that sink with the source
// left outside: the net's seeds out there stay seeds — a link from one
// may lead in, nothing else leaves it — and the later sinks sit around
// the first, inside the envelope and just beyond it.
func TestRouteSinkMatchesMapDijkstra(t *testing.T) {
	const side, ii = 24, 8
	bus := arch.DefaultFabric(side, side)
	bus.Bandwidth = arch.BWBus
	fabrics := []arch.Fabric{
		arch.DefaultFabric(side, side),
		{CGRA: arch.Default(side, side), Topology: arch.TopoMeshDiag},
		{CGRA: arch.Default(side, side), Topology: arch.TopoTorus},
		bus,
	}
	spots := []int{0, side - 1, side / 2, 1 + side/3} // corner/edge/interior coordinates
	rng := lcg(22)
	for _, f := range fabrics {
		g := mrrg.New(f, ii)
		for _, narrow := range []bool{false, true} {
			s := NewSession(g)
			whole := s.Envelope
			routed, failed, outside := 0, 0, 0
			for trial := 0; trial < 40; trial++ {
				s.Reset(g)
				s.Envelope = whole
				src := fu(rng.next(ii), spots[rng.next(len(spots))], spots[rng.next(len(spots))])
				congest(s, &rng, ii, src.R, src.C, 5, 0, 0)
				s.Reserve(src)
				net := s.NewNet(src)
				// Every fifth trial ends in a long hold — 8 to 16 cycles,
				// at most two hops off — seeded by the three paths before.
				sinks := 3
				if trial%5 == 0 {
					sinks = 4
				}
				cr, cc, dt0 := src.R, src.C, 0 // what the sinks are drawn around
				for sink := 0; sink < sinks; sink++ {
					dt := dt0 + 1 + rng.next(7)
					// Up to dt+1 hops away, so one beyond reach now and
					// then: ErrNoPath must agree too.
					hops := rng.next(dt - dt0 + 2)
					if narrow && sink > 0 {
						hops = rng.next(4) // the envelope is at most five PEs wide
					}
					if sink == 3 {
						dt, hops = dt0+8+rng.next(9), rng.next(3)
					}
					hr := rng.next(hops + 1)
					tr := cr + hr*(2*rng.next(2)-1)
					tc := cc + (hops-hr)*(2*rng.next(2)-1)
					if f.Topology.Wraps() {
						tr, tc = f.WrapCoord(tr, tc)
					} else {
						tr, tc = min(max(tr, 0), side-1), min(max(tc, 0), side-1)
					}
					what := fmt.Sprintf("%v narrow=%v trial %d sink %d", f, narrow, trial, sink)
					if routeChecked(t, s, net, randomTargets(g, &rng, src.T+dt, tr, tc), what) {
						routed++
						if !s.Envelope.Holds(src.R, src.C) {
							outside++
						}
					} else {
						failed++
					}
					if narrow && sink == 0 {
						// Up to two PEs each way around the first sink, cut
						// between it and the source.
						e := Box{R0: max(tr-rng.next(3), 0), R1: min(tr+rng.next(3), side-1),
							C0: max(tc-rng.next(3), 0), C1: min(tc+rng.next(3), side-1)}
						switch {
						case tr > src.R:
							e.R0 = max(e.R0, src.R+1)
						case tr < src.R:
							e.R1 = min(e.R1, src.R-1)
						case tc > src.C:
							e.C0 = max(e.C0, src.C+1)
						case tc < src.C:
							e.C1 = min(e.C1, src.C-1)
						}
						s.Envelope = e
						cr, cc, dt0 = tr, tc, dt-1
					}
				}
			}
			if routed < 60 || failed < 3 || narrow && outside < 20 {
				t.Errorf("%v narrow=%v: %d routed, %d unreachable, %d routed with the source outside the envelope — the trial mix no longer covers these",
					f, narrow, routed, failed, outside)
			}
		}
	}
}

// TestRouteSinkTranslationInvariant is the property the window rests on,
// seen from outside: on a mesh, the same interior problem (sources,
// sinks, occupancy, history) moved by (dr, dc) routes to the same paths
// moved by (dr, dc).
func TestRouteSinkTranslationInvariant(t *testing.T) {
	const side, ii = 40, 8
	g := mrrg.New(arch.DefaultFabric(side, side), ii)
	rng := lcg(40)
	for trial := 0; trial < 25; trial++ {
		dr, dc := rng.next(17), rng.next(17)
		r, c := 11+rng.next(6), 11+rng.next(6)
		seed := rng
		var paths [2][]Path
		for i, sh := range [][2]int{{0, 0}, {dr, dc}} {
			rng = seed // both runs draw the same problem
			s := NewSession(g)
			congest(s, &rng, ii, r, c, 6, sh[0], sh[1])
			src := fu(rng.next(ii), r+sh[0], c+sh[1])
			s.Reserve(src)
			net := s.NewNet(src)
			for sink := 0; sink < 3; sink++ {
				dt := 2 + rng.next(6)
				tr, tc := r+rng.next(dt+1)-dt/2, c+rng.next(dt+1)-dt/2
				path, _, err := s.RouteSink(net, g.OperandTargets(src.T+dt, tr+sh[0], tc+sh[1]))
				if err != nil {
					path = nil
				}
				paths[i] = append(paths[i], path)
			}
		}
		for k, p := range paths[0] {
			var moved Path
			for _, n := range p {
				moved = append(moved, n.Shifted(0, dr, dc))
			}
			if !reflect.DeepEqual(moved, paths[1][k]) {
				t.Fatalf("trial %d sink %d shifted by (%d,%d):\n got %v\nwant %v", trial, k, dr, dc, paths[1][k], moved)
			}
		}
	}
}

// TestScratchRegrowthLeavesNoStaleStamps alternates small and large
// search windows on one session, through several scratch regrowths and a
// wrap of the generation counter, and requires every result to equal a
// fresh session's: a stamp that survived a regrowth or the wrap would
// mark nodes seen, closed, owned or targets in a search that never
// touched them.
func TestScratchRegrowthLeavesNoStaleStamps(t *testing.T) {
	const side, ii = 32, 8
	g := mrrg.New(arch.DefaultFabric(side, side), ii)
	s := NewSession(g)
	rng := lcg(7)
	regrowths, wrapped := 0, false
	var bound scratchBound
	for step, dt := range []int{1, 3, 1, 6, 2, 12, 1, 12, 3, 1, 16, 2} {
		if step == 7 {
			s.sc.gen = math.MaxUint32 // the next search wraps the counter
			wrapped = true
		}
		before := len(s.sc.hopGen)
		src := fu(rng.next(ii), 4+rng.next(side-8), 4+rng.next(side-8))
		tr, tc := min(src.R+dt/2, side-1), max(src.C-(dt-dt/2)+1, 0)
		routeReusedAndFresh(t, s, g, &bound, src, tr, tc, dt, fmt.Sprintf("step %d", step))
		if len(s.sc.hopGen) != before {
			regrowths++
		}
	}
	if regrowths < 3 || !wrapped || s.sc.gen > 16 {
		t.Errorf("%d regrowths, wrapped %v, generation %d: the sequence no longer exercises regrowth and wrap", regrowths, wrapped, s.sc.gen)
	}
}

// routeReusedAndFresh routes src to PE (tr, tc) dt and dt+1 cycles later
// — the second search seeded by the first path — on s re-targeted to g
// and on a fresh session over g, fails the test where the paths differ,
// and holds s's scratch to bound after each search.
func routeReusedAndFresh(t *testing.T, s *Session, g *mrrg.Graph, bound *scratchBound, src mrrg.Node, tr, tc, dt int, what string) {
	t.Helper()
	var got, want []Path
	for _, ses := range []*Session{s.Reset(g), NewSession(g)} {
		ses.Reserve(src)
		net := ses.NewNet(src)
		var paths []Path
		for _, d := range []int{dt, dt + 1} {
			p, _, err := ses.RouteSink(net, g.OperandTargets(src.T+d, tr, tc))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			paths = append(paths, p)
			if ses == s {
				bound.check(t, s, what)
			}
		}
		if ses == s {
			got = paths
		} else {
			want = paths
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (dt %d): reset session routed\n %v\nfresh session\n %v", what, dt, got, want)
	}
}

// scratchBound tracks the largest search window a session has opened, in
// cells and in nodes (cells × slots), and fails the test when the
// session's scratch holds less than its last window or more than twice
// the largest: begin grows an array only when a window outgrows it, to at
// most double the window.
type scratchBound struct{ cells, nodes int }

func (b *scratchBound) check(t *testing.T, s *Session, what string) {
	t.Helper()
	sc := &s.sc
	w, n := sc.w.cells(), sc.w.cells()*sc.w.slots
	b.cells, b.nodes = max(b.cells, w), max(b.nodes, n)
	if len(sc.hopGen) < w || len(sc.seen) < n {
		t.Fatalf("%s: scratch (%d cells, %d nodes) smaller than its window (%d cells, %d nodes)", what, len(sc.hopGen), len(sc.seen), w, n)
	}
	if len(sc.hopGen) > 2*b.cells || len(sc.seen) > 2*b.nodes {
		t.Fatalf("%s: scratch (%d cells, %d nodes) beyond twice the largest window (%d cells, %d nodes)", what, len(sc.hopGen), len(sc.seen), b.cells, b.nodes)
	}
}
