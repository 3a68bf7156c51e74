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
	"cmp"
	"errors"
	"fmt"
	"slices"
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
	st := newMapState(f)      // cleared by every shape and depth tried
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
				m, err := st.tryPlaceIDFG(ses, fab, s1, s2, t)
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

// mapState is MAP()'s working state for one IDFG, its tables indexed by
// DFG node ID. MapIDFG builds it once; tryPlaceIDFG clears it for every
// shape and depth it tries.
type mapState struct {
	d     *ir.DFG
	ncomp int
	order []int // the cluster's nodes in topological order of the inner edges
	// parents[id] are the inner edges into id from compute and load
	// nodes (route-node inputs come from outside the iteration and are
	// handled by step 3's inter-iteration routing).
	parents [][]ir.Edge
	place   []mrrg.Node  // placement per node; T < 0 while unplaced
	netOf   []*route.Net // net per placed producer
	cands   []fuCand     // one compute node's candidate FU slots
	tgt     []mrrg.Node  // one sink's operand targets
}

// fuCand is a free FU slot and its estimated routing cost from the
// node's placed parents.
type fuCand struct {
	node mrrg.Node
	est  float64
}

func newMapState(f *ir.IDFG) *mapState {
	d := f.DFG
	n := len(d.Nodes)
	st := &mapState{d: d, ncomp: f.NumCompute(),
		parents: make([][]ir.Edge, n), place: make([]mrrg.Node, n), netOf: make([]*route.Net, n)}
	indeg := make([]int32, n)
	for id := range st.place {
		st.place[id] = mrrg.Node{T: -1}
	}
	for _, e := range f.Inner {
		indeg[e.To]++
		if k := d.Nodes[e.From].Kind; k.IsCompute() || k == ir.OpLoad {
			st.parents[e.To] = append(st.parents[e.To], e)
		}
	}
	// Kahn's algorithm; order is its own queue, and each newly ready set
	// joins it sorted by ID. A consumer outside the cluster starts at 0
	// and goes negative, so it never joins.
	for _, id := range f.Comp {
		if indeg[id] == 0 {
			st.order = append(st.order, id)
		}
	}
	sort.Ints(st.order)
	for head := 0; head < len(st.order); head++ {
		ready := len(st.order)
		for _, ei := range d.OutEdges(st.order[head]) {
			to := d.Edges[ei].To
			if indeg[to]--; indeg[to] == 0 {
				st.order = append(st.order, to)
			}
		}
		sort.Ints(st.order[ready:])
	}
	return st
}

func (st *mapState) placed(id int) bool { return st.place[id].T >= 0 }

// routeEdge routes the placed edge e on its producer's net, starting the
// net on first use.
func (st *mapState) routeEdge(ses *route.Session, e ir.Edge) error {
	net := st.netOf[e.From]
	if net == nil {
		net = ses.NewNet(st.place[e.From])
		st.netOf[e.From] = net
	}
	cn := st.place[e.To]
	st.tgt = ses.G.AppendOperandTargets(st.tgt[:0], cn.T, cn.R, cn.C)
	_, _, err := ses.RouteSink(net, st.tgt)
	return err
}

// rerouteAll rips up every net and re-routes every parent → child edge
// between placed nodes, in topological order of the child.
func (st *mapState) rerouteAll(ses *route.Session) error {
	ses.RipUp()
	clear(st.netOf)
	for _, id := range st.order {
		for _, e := range st.parents[id] {
			if st.placed(e.From) && st.placed(e.To) {
				if err := st.routeEdge(ses, e); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// tryPlaceIDFG attempts the heuristic placement-and-routing of the IDFG on
// one time-extended sub-CGRA (lines 33-45): compute ops on FU slots by
// least accumulated routing cost from their placed parents, loads on
// memory read ports adjacent to their consumers, with SPR-style cost
// escalation rounds until no resource is oversubscribed. ses is
// re-targeted to the shape's time-extended graph.
func (st *mapState) tryPlaceIDFG(ses *route.Session, fab arch.Fabric, s1, s2, depth int) (*SubMapping, error) {
	sub := subFabric(fab, s1, s2)
	g := mrrg.NewAcyclic(sub, depth)
	ses.Reset(g).MaxVisits = 20000
	for _, id := range st.order {
		st.place[id] = mrrg.Node{T: -1}
	}
	clear(st.netOf) // the nets of the last shape went with the reset
	d := st.d

	// Place compute nodes greedily by estimated cost, verify with real
	// routing, backtracking over candidate slots.
	for _, id := range st.order {
		n := d.Nodes[id]
		if !n.Kind.IsCompute() {
			continue
		}
		// Each memory-operand load needs its own memory-read cycle at or
		// before the consumer; a node with m loads cannot sit earlier than
		// cycle m-1.
		memParents := 0
		for _, e := range st.parents[id] {
			if d.Nodes[e.From].Kind == ir.OpLoad {
				memParents++
			}
		}
		st.cands = st.cands[:0]
		for tt := max(memParents-1, 0); tt < depth; tt++ {
			for r := 0; r < s1; r++ {
			slot:
				for c := 0; c < s2; c++ {
					fu := g.FUNode(tt, r, c)
					if ses.Occ(fu) > 0 {
						continue
					}
					est := float64(tt) * 0.05
					for _, e := range st.parents[id] {
						// Loads are placed later, next to their consumers.
						if !d.Nodes[e.From].Kind.IsCompute() || !st.placed(e.From) {
							continue
						}
						pp := st.place[e.From]
						dist := absInt(pp.R-r) + absInt(pp.C-c)
						lat := tt - pp.T
						need := max(dist, 1) // same PE: must pass through the RF
						if lat < need {
							continue slot
						}
						est += float64(dist) + float64(lat-need)*0.3
					}
					st.cands = append(st.cands, fuCand{fu, est})
				}
			}
		}
		if len(st.cands) == 0 {
			return nil, fmt.Errorf("himap: no feasible FU slot for %v on (%d,%d,%d): %w", n, s1, s2, depth, diag.ErrPlacementInfeasible)
		}
		slices.SortStableFunc(st.cands, func(a, b fuCand) int {
			if a.est != b.est {
				return cmp.Compare(a.est, b.est)
			}
			return cmp.Compare(g.Key(a.node), g.Key(b.node))
		})
		routed := false
		for _, c := range st.cands {
			ses.Reserve(c.node)
			st.place[id] = c.node
			routed = true
			for _, e := range st.parents[id] {
				if d.Nodes[e.From].Kind.IsCompute() && st.placed(e.From) {
					if err := st.routeEdge(ses, e); err != nil {
						routed = false
						break
					}
				}
			}
			if routed {
				break
			}
			// Back out this slot and rebuild all routing from scratch
			// (graphs are tiny).
			ses.Unreserve(c.node)
			st.place[id] = mrrg.Node{T: -1}
			if err := st.rerouteAll(ses); err != nil {
				return nil, err
			}
		}
		if !routed {
			return nil, fmt.Errorf("himap: cannot place %v on (%d,%d,%d): %w", n, s1, s2, depth, diag.ErrPlacementInfeasible)
		}
	}

	// Place loads next to their first placed consumer; a load feeding
	// only route nodes or outside consumers anchors at slot (0, 0, 0).
	whole := route.Box{R0: 0, R1: s1 - 1, C0: 0, C1: s2 - 1}
	for _, id := range st.order {
		if d.Nodes[id].Kind != ir.OpLoad {
			continue
		}
		cons := g.FUNode(0, 0, 0)
		for _, ei := range d.OutEdges(id) {
			if to := d.Edges[ei].To; st.placed(to) {
				cons = st.place[to]
				break
			}
		}
		mr, ok := claimMemRead(ses, sub, cons.T, cons.R, cons.C, 0, depth, 0, whole)
		if !ok {
			return nil, diag.Failf(diag.ErrMemPortInfeasible,
				"himap: no memory read slot for %v on (%d,%d,%d) of the %s fabric", d.Nodes[id], s1, s2, depth, fab)
		}
		st.place[id] = mr
	}
	// Route load → consumer edges.
	for _, id := range st.order {
		if d.Nodes[id].Kind != ir.OpLoad {
			continue
		}
		for _, ei := range d.OutEdges(id) {
			e := d.Edges[ei]
			if !st.placed(e.To) || !d.Nodes[e.To].Kind.IsCompute() {
				continue
			}
			if err := st.routeEdge(ses, e); err != nil {
				return nil, fmt.Errorf("himap: load routing failed on (%d,%d,%d): %w", s1, s2, depth, err)
			}
		}
	}

	// Negotiated congestion: re-route with escalating history costs until
	// clean or the round budget is exhausted (lines 35-45).
	for round := 0; round < 10; round++ {
		if len(ses.BumpHistory(ses.Nets())) == 0 {
			rel := make(map[int]RelPlace, len(st.order))
			for _, id := range st.order {
				pn := st.place[id]
				if pn.T < 0 {
					continue
				}
				kind := PlaceFU
				if pn.Class == mrrg.ClassMemRead {
					kind = PlaceMemRead
				}
				rel[d.Nodes[id].BodyOp] = RelPlace{T: pn.T, R: pn.R, C: pn.C, Kind: kind}
			}
			return &SubMapping{
				S1: s1, S2: s2, Depth: depth,
				Rel:  rel,
				Util: float64(st.ncomp) / float64(s1*s2*depth),
			}, nil
		}
		if err := st.rerouteAll(ses); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("himap: congestion unresolved on (%d,%d,%d): %w", s1, s2, depth, diag.ErrRouteCongested)
}

// claimMemRead reserves a memory-read slot for a load whose consumer sits
// at (t, r, c) and returns it, trying cycles from minBack to maxBack-1
// before t, latest first, and none before floor. When the consumer's PE
// has a memory port, that port is the only one tried (the homogeneous
// fast path: it decides the bit-exact placements of the default fabric).
// Otherwise the memory-capable PEs inside in are tried nearest first
// (ties by row, then column), each at least its hop distance back so the
// value can reach the consumer.
func claimMemRead(ses *route.Session, fab arch.Fabric, t, r, c, minBack, maxBack, floor int, in route.Box) (mrrg.Node, bool) {
	pes := [][2]int{{r, c}}
	own := fab.MemCapable(r, c)
	if !own {
		pes = fab.MemPEs()
		slices.SortStableFunc(pes, func(a, b [2]int) int {
			return cmp.Or(cmp.Compare(absInt(a[0]-r)+absInt(a[1]-c), absInt(b[0]-r)+absInt(b[1]-c)),
				cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
	}
	for _, pe := range pes {
		if !own && !in.Holds(pe[0], pe[1]) {
			continue
		}
		for back := max(minBack, absInt(pe[0]-r)+absInt(pe[1]-c)); back < maxBack && t-back >= floor; back++ {
			mr := mrrg.Node{T: t - back, R: pe[0], C: pe[1], Class: mrrg.ClassMemRead}
			if ses.Occ(mr) == 0 {
				ses.Reserve(mr)
				return mr, true
			}
		}
	}
	return mrrg.Node{}, false
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
