package himap

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/mrrg"
	"himap/internal/route"
)

// mapIDFGRef is MapIDFG as it stood with map-keyed per-call state, two
// copies of the edge-routing code and the memory-read slot search
// written inline. It is kept as the reference the dense MAP() is held
// to: the same sub-mappings in the same order, and the same error.
func mapIDFGRef(f *ir.IDFG, fab arch.Fabric, slack int) ([]*SubMapping, error) {
	ncomp := f.NumCompute()
	if ncomp == 0 {
		return nil, nil
	}
	needsMem := idfgNeedsMem(f)
	nloads := numClusterLoads(f)
	var out []*SubMapping
	memRejects := 0
	ses := new(route.Session) // re-targeted by every shape and depth tried
	for _, s1 := range divisors(fab.Rows) {
		if s1 > ncomp {
			continue
		}
		for _, s2 := range divisors(fab.Cols) {
			// Shapes with more PEs than ops can never reach 100% utilization,
			// so on homogeneous fabrics they are dominated and skipped. On a
			// heterogeneous fabric they can be the only capability-uniform
			// tiles (e.g. boundary memory forces full-width tiles), so memory
			// kernels keep them as lower-utilization candidates.
			if s1*s2 > ncomp && (!needsMem || fab.Uniform()) {
				continue
			}
			if needsMem && !tileCapsUniform(fab, s1, s2) {
				memRejects++
				continue
			}
			sub := subFabric(fab, s1, s2)
			t0 := (ncomp + s1*s2 - 1) / (s1 * s2)
			for t := t0; t <= t0+slack; t++ {
				if t > fab.ConfigDepth {
					break
				}
				if nloads > sub.NumMemPEs()*t {
					memRejects++
					continue
				}
				m, err := tryPlaceIDFGRef(ses, f, fab, s1, s2, t)
				if err != nil {
					if errors.Is(err, diag.ErrMemPortInfeasible) {
						memRejects++
					}
					continue
				}
				out = append(out, m)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Util != b.Util {
			return a.Util > b.Util
		}
		if a.S1*a.S2 != b.S1*b.S2 {
			return a.S1*a.S2 < b.S1*b.S2
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		return a.S1 < b.S1
	})
	if len(out) == 0 && memRejects > 0 {
		return nil, diag.Failf(diag.ErrMemPortInfeasible,
			"IDFG demands %d memory loads per iteration; no sub-CGRA shape of the %s fabric provides matching memory ports",
			nloads, fab)
	}
	return out, nil
}

// tryPlaceIDFGRef is tryPlaceIDFG with a fresh map per table on every
// call, nets dropped on rip-up instead of freed.
func tryPlaceIDFGRef(ses *route.Session, f *ir.IDFG, fab arch.Fabric, s1, s2, depth int) (*SubMapping, error) {
	sub := subFabric(fab, s1, s2)
	g := mrrg.NewAcyclic(sub, depth)
	ses.Reset(g).MaxVisits = 20000

	d := f.DFG
	inside := map[int]bool{}
	for _, id := range f.Comp {
		inside[id] = true
	}
	// Intra-iteration parents per node, restricted to compute/load parents
	// (route-node inputs come from outside the iteration and are handled
	// by step 3's inter-iteration routing).
	parents := map[int][]ir.Edge{}
	for _, e := range f.Inner {
		if d.Nodes[e.From].Kind.IsCompute() || d.Nodes[e.From].Kind == ir.OpLoad {
			parents[e.To] = append(parents[e.To], e)
		}
	}
	// Topological order of the compute nodes within the cluster.
	order := topoInsideRef(f)

	place := map[int]mrrg.Node{} // DFG node -> placement
	var nets []*route.Net
	netOf := map[int]*route.Net{}

	routeEdge := func(e ir.Edge) error {
		pn, ok := place[e.From]
		if !ok {
			return fmt.Errorf("himap: parent %d unplaced: %w", e.From, diag.ErrPlacementInfeasible)
		}
		cn := place[e.To]
		net := netOf[e.From]
		if net == nil {
			net = ses.NewNet(pn)
			netOf[e.From] = net
			nets = append(nets, net)
		}
		_, _, err := ses.RouteSink(net, g.OperandTargets(cn.T, cn.R, cn.C))
		return err
	}

	// Place compute nodes greedily by estimated cost, verify with real
	// routing, backtracking over candidate slots.
	for _, id := range order {
		n := d.Nodes[id]
		if !n.Kind.IsCompute() {
			continue
		}
		type cand struct {
			node mrrg.Node
			est  float64
		}
		// Each memory-operand load needs its own memory-read cycle at or
		// before the consumer; a node with m loads cannot sit earlier than
		// cycle m-1.
		memParents := 0
		for _, e := range parents[id] {
			if d.Nodes[e.From].Kind == ir.OpLoad {
				memParents++
			}
		}
		minT := memParents - 1
		if minT < 0 {
			minT = 0
		}
		var cands []cand
		for tt := minT; tt < depth; tt++ {
			for r := 0; r < s1; r++ {
				for c := 0; c < s2; c++ {
					fu := g.FUNode(tt, r, c)
					if ses.Occ(fu) > 0 {
						continue
					}
					est := float64(tt) * 0.05
					feasible := true
					for _, e := range parents[id] {
						p := d.Nodes[e.From]
						if !p.Kind.IsCompute() {
							continue // loads placed later, adjacent
						}
						pp, ok := place[e.From]
						if !ok {
							continue
						}
						dist := absInt(pp.R-r) + absInt(pp.C-c)
						lat := tt - pp.T
						need := dist
						if need == 0 {
							need = 1 // same PE: must pass through the RF
						}
						if lat < need {
							feasible = false
							break
						}
						est += float64(dist) + float64(lat-need)*0.3
					}
					if !feasible {
						continue
					}
					cands = append(cands, cand{fu, est})
				}
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("himap: no feasible FU slot for %v on (%d,%d,%d): %w", n, s1, s2, depth, diag.ErrPlacementInfeasible)
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].est != cands[j].est {
				return cands[i].est < cands[j].est
			}
			return g.Key(cands[i].node) < g.Key(cands[j].node)
		})
		placed := false
		for _, c := range cands {
			ses.Reserve(c.node)
			place[id] = c.node
			ok := true
			for _, e := range parents[id] {
				if !d.Nodes[e.From].Kind.IsCompute() {
					continue
				}
				if _, isPlaced := place[e.From]; !isPlaced {
					continue
				}
				if err := routeEdge(e); err != nil {
					ok = false
					break
				}
			}
			if ok {
				placed = true
				break
			}
			// Back out this slot and rebuild all routing from scratch
			// (graphs are tiny); rerouteAll releases every net first.
			ses.Unreserve(c.node)
			delete(place, id)
			if err := rerouteAllRef(ses, g, d, place, parents, netOf, &nets, order); err != nil {
				return nil, err
			}
		}
		if !placed {
			return nil, fmt.Errorf("himap: cannot place %v on (%d,%d,%d): %w", n, s1, s2, depth, diag.ErrPlacementInfeasible)
		}
	}

	// Place loads next to their consumers.
	for _, id := range order {
		n := d.Nodes[id]
		if n.Kind != ir.OpLoad {
			continue
		}
		// Find the first consumer inside the cluster.
		var cons mrrg.Node
		found := false
		for _, ei := range d.OutEdges(id) {
			to := d.Edges[ei].To
			if p, ok := place[to]; ok && inside[to] {
				cons = p
				found = true
				break
			}
		}
		if !found {
			// Load feeding only route nodes / outside consumers: anchor at
			// slot (0, 0, 0)'s memory port, first free cycle.
			cons = g.FUNode(0, 0, 0)
		}
		placedLoad := false
		if sub.MemCapable(cons.R, cons.C) {
			// Consumer's own memory port, backing off in time — the
			// homogeneous-fabric fast path (kept verbatim: it decides
			// the bit-exact placements of the default fabric).
			for back := 0; back < depth; back++ {
				tt := cons.T - back
				if tt < 0 {
					break
				}
				mr := g.MemReadNode(tt, cons.R, cons.C)
				if ses.Occ(mr) > 0 {
					continue
				}
				ses.Reserve(mr)
				place[id] = mr
				placedLoad = true
				break
			}
		} else {
			// Compute-only consumer: pick the nearest memory-capable PE
			// (deterministic distance → row → col order) at a cycle early
			// enough for the value to hop over.
			for _, pe := range memPEsByDistRef(sub, cons.R, cons.C) {
				dist := absInt(pe[0]-cons.R) + absInt(pe[1]-cons.C)
				for back := dist; back < depth; back++ {
					tt := cons.T - back
					if tt < 0 {
						break
					}
					mr := g.MemReadNode(tt, pe[0], pe[1])
					if ses.Occ(mr) > 0 {
						continue
					}
					ses.Reserve(mr)
					place[id] = mr
					placedLoad = true
					break
				}
				if placedLoad {
					break
				}
			}
		}
		if !placedLoad {
			return nil, diag.Failf(diag.ErrMemPortInfeasible,
				"himap: no memory read slot for %v on (%d,%d,%d) of the %s fabric", n, s1, s2, depth, fab)
		}
	}
	// Route load → consumer edges.
	for _, id := range order {
		if d.Nodes[id].Kind != ir.OpLoad {
			continue
		}
		for _, ei := range d.OutEdges(id) {
			e := d.Edges[ei]
			if !inside[e.To] || !d.Nodes[e.To].Kind.IsCompute() {
				continue
			}
			if err := routeEdge(e); err != nil {
				return nil, fmt.Errorf("himap: load routing failed on (%d,%d,%d): %w", s1, s2, depth, err)
			}
		}
	}

	// Negotiated congestion: re-route with escalating history costs until
	// clean or the round budget is exhausted (lines 35-45).
	for round := 0; round < 10; round++ {
		if len(ses.BumpHistory(nets)) == 0 {
			rel := map[int]RelPlace{}
			for id, pn := range place {
				kind := PlaceFU
				if pn.Class == mrrg.ClassMemRead {
					kind = PlaceMemRead
				}
				rel[d.Nodes[id].BodyOp] = RelPlace{T: pn.T, R: pn.R, C: pn.C, Kind: kind}
			}
			ncomp := f.NumCompute()
			return &SubMapping{
				S1: s1, S2: s2, Depth: depth,
				Rel:  rel,
				Util: float64(ncomp) / float64(s1*s2*depth),
			}, nil
		}
		if err := rerouteAllRef(ses, g, d, place, parents, netOf, &nets, order); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("himap: congestion unresolved on (%d,%d,%d): %w", s1, s2, depth, diag.ErrRouteCongested)
}

// rerouteAllRef rips up every net and re-routes all intra-iteration
// edges between placed nodes, in deterministic order.
func rerouteAllRef(ses *route.Session, g *mrrg.Graph, d *ir.DFG,
	place map[int]mrrg.Node, parents map[int][]ir.Edge,
	netOf map[int]*route.Net, nets *[]*route.Net, order []int) error {
	for _, net := range *nets {
		ses.Release(net)
	}
	*nets = (*nets)[:0]
	for k := range netOf {
		delete(netOf, k)
	}
	for _, id := range order {
		for _, e := range parents[id] {
			if _, ok := place[e.From]; !ok {
				continue
			}
			if _, ok := place[e.To]; !ok {
				continue
			}
			pn := place[e.From]
			cn := place[e.To]
			net := netOf[e.From]
			if net == nil {
				net = ses.NewNet(pn)
				netOf[e.From] = net
				*nets = append(*nets, net)
			}
			if _, _, err := ses.RouteSink(net, g.OperandTargets(cn.T, cn.R, cn.C)); err != nil {
				return err
			}
		}
	}
	return nil
}

// topoInsideRef returns the cluster's node IDs in topological order of
// the inner edges.
func topoInsideRef(f *ir.IDFG) []int {
	d := f.DFG
	inside := map[int]bool{}
	for _, id := range f.Comp {
		inside[id] = true
	}
	indeg := map[int]int{}
	for _, id := range f.Comp {
		indeg[id] = 0
	}
	for _, e := range f.Inner {
		indeg[e.To]++
	}
	var queue []int
	for _, id := range f.Comp {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	sort.Ints(queue)
	var order []int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		var next []int
		for _, ei := range d.OutEdges(id) {
			to := d.Edges[ei].To
			if !inside[to] {
				continue
			}
			indeg[to]--
			if indeg[to] == 0 {
				next = append(next, to)
			}
		}
		sort.Ints(next)
		queue = append(queue, next...)
	}
	return order
}

// memPEsByDistRef lists the fabric's memory-capable PEs sorted by
// Manhattan distance from (r, c), ties broken by row then column.
func memPEsByDistRef(fab arch.Fabric, r, c int) [][2]int {
	pes := fab.MemPEs()
	sort.SliceStable(pes, func(i, j int) bool {
		di := absInt(pes[i][0]-r) + absInt(pes[i][1]-c)
		dj := absInt(pes[j][0]-r) + absInt(pes[j][1]-c)
		if di != dj {
			return di < dj
		}
		if pes[i][0] != pes[j][0] {
			return pes[i][0] < pes[j][0]
		}
		return pes[i][1] < pes[j][1]
	})
	return pes
}

// TestMapIDFGMatchesRef holds MapIDFG to mapIDFGRef: every evaluation
// and extension kernel on every explored fabric variant of five sizes at
// depth slack 0-3 yields the same sub-mappings and the same error.
func TestMapIDFGMatchesRef(t *testing.T) {
	cases := 0
	for _, k := range append(kernel.Evaluation(), kernel.Extensions()...) {
		f, err := k.GenericIDFG()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, n := range []int{4, 5, 6, 8, 16} {
			for _, fab := range arch.ExploreFabrics(n, n) {
				for slack := 0; slack <= 3; slack++ {
					cases++
					assertMapIDFGMatchesRef(t, k.Name, f, fab, slack)
				}
			}
		}
	}
	for _, h := range handIDFGs() {
		for _, n := range []int{2, 3, 4} {
			for _, fab := range arch.ExploreFabrics(n, n) {
				for slack := 0; slack <= 3; slack++ {
					cases++
					assertMapIDFGMatchesRef(t, h.name, h.f, fab, slack)
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// namedIDFG is one input of TestMapIDFGMatchesRef beyond the catalog.
type namedIDFG struct {
	name string
	f    *ir.IDFG
}

// handIDFGs are iterations no catalog kernel has, each built to reach a
// branch of MAP() the kernel sweep leaves untested:
//   - fanout: node 0's out-edges come in falling ID order, so its two
//     consumers become ready out of order and only the sort of the newly
//     ready set places node 1 before node 2;
//   - congest: ten adds that need three congestion rounds on the 4x4
//     narrow-RF fabric and two on most 3x3 and 4x4 variants (no catalog
//     kernel resolves after round 1);
//   - farload: four chains of three adds whose tails each take a load;
//     on a boundary-memory tile the tail in column 2 is nearer column 3
//     than column 0, so only the nearest-first order of the memory PEs
//     puts its load there;
//   - sharedload: one load feeds node 0 and then node 1, a cycle later;
//     only anchoring the load on its first consumer reaches both.
func handIDFGs() []namedIDFG {
	add, ld := ir.OpAdd, ir.OpLoad
	var farEdges [][3]int
	for i := 0; i < 4; i++ {
		farEdges = append(farEdges, [3]int{i, 4 + i, 0}, [3]int{4 + i, 8 + i, 0}, [3]int{12 + i, 8 + i, 1})
	}
	return []namedIDFG{
		{"fanout", handIDFG([]ir.OpKind{add, add, add}, [][3]int{{0, 2, 0}, {0, 1, 0}})},
		{"congest", handIDFG([]ir.OpKind{add, add, add, add, add, add, add, add, add, add},
			[][3]int{{0, 1, 0}, {1, 2, 0}, {1, 2, 1}, {1, 3, 1}, {1, 5, 0}, {0, 5, 1}, {1, 6, 1}, {0, 7, 0}, {7, 8, 1}, {8, 9, 1}})},
		{"farload", handIDFG([]ir.OpKind{add, add, add, add, add, add, add, add, add, add, add, add, ld, ld, ld, ld}, farEdges)},
		{"sharedload", handIDFG([]ir.OpKind{add, add, ld}, [][3]int{{0, 1, 0}, {2, 0, 1}, {2, 1, 1}})},
	}
}

// handIDFG builds a one-iteration IDFG: node i has kind kinds[i] and body
// op i, and every edge {from, to, port} is inner.
func handIDFG(kinds []ir.OpKind, edges [][3]int) *ir.IDFG {
	d := ir.NewDFG([]int{1})
	f := &ir.IDFG{DFG: d}
	for i, k := range kinds {
		d.AddNode(&ir.Node{Kind: k, BodyOp: i})
		f.Comp = append(f.Comp, i)
	}
	for _, e := range edges {
		d.AddEdge(e[0], e[1], e[2])
		f.Inner = append(f.Inner, ir.Edge{From: e[0], To: e[1], ToPort: e[2]})
	}
	return f
}

func assertMapIDFGMatchesRef(t *testing.T, name string, f *ir.IDFG, fab arch.Fabric, slack int) {
	t.Helper()
	got, gotErr := MapIDFG(f, fab, slack)
	want, wantErr := mapIDFGRef(f, fab, slack)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s on %s slack %d: error %v, reference %v", name, fab, slack, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s on %s slack %d: sub-mappings differ\ngot  %v\nwant %v", name, fab, slack, got, want)
	}
}
