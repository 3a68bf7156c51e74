// Package himap implements the paper's primary contribution: the
// hierarchical HiMap mapping algorithm (Algorithm 1). The three steps are
//
//  1. IDFG → sub-CGRA mapping (MAP, this file): place one iteration's
//     operations on candidate sub-CGRA shapes (s1 × s2, time depth t),
//     maximizing sub-CGRA utilization;
//  2. ISDG → VSA mapping (compile.go + internal/systolic): place the
//     iteration clusters on the Virtual Systolic Array with the (H,S)
//     space-time transformation, inserting forwarding paths for multi-hop
//     dependencies;
//  3. unique-iteration identification, minimal-DFG routing, and
//     replication (unique.go; layout.go, nets.go, negotiate.go,
//     replicate.go).
package himap

import (
	"errors"
	"fmt"
	"sort"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
	"himap/internal/route"
)

// PlaceKind distinguishes the resource class of a relative placement.
type PlaceKind uint8

const (
	PlaceFU PlaceKind = iota
	PlaceMemRead
)

// RelPlace is a placement relative to a sub-CGRA: a slot within
// [0, Depth) × [0, S1) × [0, S2).
type RelPlace struct {
	T, R, C int
	Kind    PlaceKind
}

// SubMapping is one valid IDFG → sub-CGRA mapping φ” returned by MAP().
type SubMapping struct {
	S1, S2, Depth int
	// Rel maps a body-op identifier (including the synthesized load
	// encodings of the kernel package) to its relative placement.
	Rel  map[int]RelPlace
	Util float64 // compute ops / (S1·S2·Depth)
}

func (m *SubMapping) String() string {
	return fmt.Sprintf("sub-CGRA (%d,%d,%d) util %.0f%%", m.S1, m.S2, m.Depth, m.Util*100)
}

func divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// MapIDFG implements the MAP() function of Algorithm 1 (lines 30-46): it
// enumerates rectangular sub-CGRA shapes (s1, s2) that evenly cluster the
// target CGRA and time depths t starting at the resource minimum, maps
// the generic IDFG onto each time-extended sub-CGRA with the
// negotiated-congestion heuristic, and returns every successful mapping
// sorted by utilization (line 4).
//
// slack is the number of extra time depths tried beyond the resource
// minimum (depthSlack in a compile); the lower-utilization mappings it produces are the fallbacks
// step 3 reaches for when routing the highest-utilization mapping
// congests (§VI's ADI/BiCG/FW discussion).
//
// On heterogeneous fabrics two extra constraints apply: every s1×s2 tile
// of the fabric must carry an identical capability footprint (otherwise
// replicating the canonical iteration across clusters would land memory
// ops on compute-only PEs), and the tile must offer enough memory-port
// slots for the iteration's loads. When every candidate shape fails for
// one of these reasons the returned error wraps
// diag.ErrMemPortInfeasible.
func MapIDFG(f *ir.IDFG, fab arch.Fabric, slack int) ([]*SubMapping, error) {
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
				m, err := tryPlaceIDFG(ses, f, fab, s1, s2, t)
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

// idfgNeedsMem reports whether the iteration body touches memory.
func idfgNeedsMem(f *ir.IDFG) bool {
	for _, n := range f.DFG.Nodes {
		if n.Kind == ir.OpLoad || n.Kind == ir.OpStore {
			return true
		}
	}
	return false
}

// numClusterLoads counts the loads the sub-CGRA mapping itself must place
// (loads inside the cluster; boundary loads are routed in step 3).
func numClusterLoads(f *ir.IDFG) int {
	n := 0
	for _, id := range f.Comp {
		if f.DFG.Nodes[id].Kind == ir.OpLoad {
			n++
		}
	}
	return n
}

// tileCapsUniform reports whether every s1×s2 tile of the fabric carries
// the same per-PE capability footprint — the legality condition for
// replicating one canonical iteration mapping across all clusters.
// Capabilities depend only on the column under the supported policies, so
// tiles are compared column-wise.
func tileCapsUniform(fab arch.Fabric, s1, s2 int) bool {
	for c := 0; c < s2; c++ {
		want := fab.MemCapable(0, c)
		for off := s2; off < fab.Cols; off += s2 {
			if fab.MemCapable(0, c+off) != want {
				return false
			}
		}
	}
	return true
}

// subFabric builds the sub-CGRA fabric G” of §IV: the tile anchored at
// the array origin. Torus wrap links only survive when the tile spans the
// full dimension; a boundary-memory layout survives only when the tile
// spans all columns (otherwise interior tiles have no memory ports, and
// the capability-uniformity check restricts such shapes to memory-free
// kernels anyway).
func subFabric(fab arch.Fabric, s1, s2 int) arch.Fabric {
	sub := fab
	sub.Rows, sub.Cols = s1, s2
	if fab.Topology == arch.TopoTorus && (s1 != fab.Rows || s2 != fab.Cols) {
		sub.Topology = arch.TopoMesh
	}
	switch fab.Mem {
	case arch.MemAll:
		// every tile PE keeps its port
	case arch.MemBoundary:
		if s2 != fab.Cols {
			sub.Mem = arch.MemNone
		}
	}
	return sub
}

// tryPlaceIDFG attempts the heuristic placement-and-routing of the IDFG
// on one time-extended sub-CGRA (lines 33-45): compute ops on FU slots by
// least accumulated routing cost from their placed parents, loads on
// memory read ports adjacent to their consumers, with SPR-style cost
// escalation rounds until no resource is oversubscribed. ses is
// re-targeted to the shape's time-extended graph.
func tryPlaceIDFG(ses *route.Session, f *ir.IDFG, fab arch.Fabric, s1, s2, depth int) (*SubMapping, error) {
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
	order := topoInside(f)

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
			if err := rerouteAll(ses, g, d, place, parents, netOf, &nets, order); err != nil {
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
			for _, pe := range memPEsByDist(sub, cons.R, cons.C) {
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
		if err := rerouteAll(ses, g, d, place, parents, netOf, &nets, order); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("himap: congestion unresolved on (%d,%d,%d): %w", s1, s2, depth, diag.ErrRouteCongested)
}

// rerouteAll rips up every net and re-routes all intra-iteration edges
// between placed nodes, in deterministic order.
func rerouteAll(ses *route.Session, g *mrrg.Graph, d *ir.DFG,
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

// topoInside returns the cluster's node IDs in topological order of the
// inner edges.
func topoInside(f *ir.IDFG) []int {
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

// memPEsByDist lists the fabric's memory-capable PEs sorted by Manhattan
// distance from (r, c), ties broken by row then column.
func memPEsByDist(fab arch.Fabric, r, c int) [][2]int {
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

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
