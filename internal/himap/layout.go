package himap

import (
	"sort"

	"himap/internal/arch"
	"himap/internal/ir"
	"himap/internal/mrrg"
)

// layout bundles everything step 3 needs: the placed ISDG, the sub-CGRA
// mapping, and the derived geometry.
type layout struct {
	cg      arch.Fabric
	g       *ir.ISDG
	cp      *ClusterPlace
	sub     *SubMapping
	iib     int
	classes []*UniqueClass
	byClust []int

	// pinRel[classIdx][bodyOp] is the region-relative relay resource
	// pinned for a route node (deterministic, so replication is
	// self-consistent even for chains within one class).
	pinRel []map[int]RelPlaceReg
	// loadRel[classIdx][bodyOp] holds the chosen memory-read slots of
	// boundary loads (loads absent from the generic IDFG).
	loadRel []map[int]RelPlace
	// policy is the relay-pin ablation knob (see Options.RelayPolicy).
	policy RelayPolicy
	// tgtBuf is the sink target set under construction, reused across
	// every sink of the attempt.
	tgtBuf []mrrg.Node
}

// RelPlaceReg is a region-relative relay resource for route pins: either
// a register of the anchor PE (Out false) or an output register of a
// neighboring PE pointed at the anchor (Out true) — the classic systolic
// in→out crossbar forwarding, which costs no RF ports.
type RelPlaceReg struct {
	T, R, C int
	Reg     uint8
	Out     bool
	Dir     arch.Dir
	// Mem marks a transparent pin: the route node's producer is a load in
	// the same cluster, so the value is available at the load's memory
	// read port (which can feed the ALU and the crossbar directly, with no
	// RF traffic). T/R/C then hold only the anchor used for load slotting.
	Mem bool
}

// regionBase returns the absolute origin of a cluster's space-time
// region: (CP.t × depth, CP.x × s1, CP.y × s2) — the placement formula of
// Algorithm 1 line 13 (the modulo-II_B wrap is applied at stamping).
func (l *layout) regionBase(ci int) (t, r, c int) {
	return l.cp.T[ci] * l.sub.Depth, l.cp.X[ci] * l.sub.S1, l.cp.Y[ci] * l.sub.S2
}

// nodeAbs returns the absolute placement of a node whose body op was
// placed by MAP (computes and generic loads).
func (l *layout) nodeAbs(id int) (mrrg.Node, bool) {
	n := l.g.DFG.Nodes[id]
	rel, ok := l.sub.Rel[n.BodyOp]
	if !ok {
		return mrrg.Node{}, false
	}
	bt, br, bc := l.regionBase(l.g.ClusterOf(id))
	cl := mrrg.ClassFU
	if rel.Kind == PlaceMemRead {
		cl = mrrg.ClassMemRead
	}
	return mrrg.Node{T: bt + rel.T, R: br + rel.R, C: bc + rel.C, Class: cl}, true
}

// loadAbs returns the absolute memory-read slot of a boundary load.
func (l *layout) loadAbs(id int) (mrrg.Node, bool) {
	ci := l.g.ClusterOf(id)
	rel, ok := l.loadRel[l.byClust[ci]][l.g.DFG.Nodes[id].BodyOp]
	if !ok {
		return mrrg.Node{}, false
	}
	bt, br, bc := l.regionBase(ci)
	return mrrg.Node{T: bt + rel.T, R: br + rel.R, C: bc + rel.C, Class: mrrg.ClassMemRead}, true
}

// pinAbs returns the absolute pinned relay resource of a route node.
func (l *layout) pinAbs(id int) (mrrg.Node, bool) {
	ci := l.g.ClusterOf(id)
	pin, ok := l.pinRel[l.byClust[ci]][l.g.DFG.Nodes[id].BodyOp]
	if !ok {
		return mrrg.Node{}, false
	}
	if pin.Mem {
		// Resolve the producing load of this route instance.
		ins := l.g.DFG.InEdges(id)
		if len(ins) == 0 {
			return mrrg.Node{}, false
		}
		prod := l.g.DFG.Edges[ins[0]].From
		if abs, ok := l.nodeAbs(prod); ok {
			return abs, true
		}
		return l.loadAbs(prod)
	}
	bt, br, bc := l.regionBase(ci)
	// Crossbar pins of clusters at the array edge reach across a wrap
	// link on a torus; fold the coordinate so routing targets the real PE.
	pr, pc := l.cg.WrapCoord(br+pin.R, bc+pin.C)
	if pin.Out {
		return mrrg.Node{T: bt + pin.T, R: pr, C: pc, Class: mrrg.ClassOut, Idx: uint8(pin.Dir)}, true
	}
	return mrrg.Node{T: bt + pin.T, R: pr, C: pc, Class: mrrg.ClassReg, Idx: pin.Reg}, true
}

// computePins chooses the relay register of every route node class:
// anchored at its first placed intra-cluster consumer (or the region
// origin), with a register index rotating over the cluster's route ops.
func (l *layout) computePins() {
	l.pinRel = make([]map[int]RelPlaceReg, len(l.classes))
	for idx, cl := range l.classes {
		pins := map[int]RelPlaceReg{}
		rep := l.g.Clusters[cl.Rep]
		// Stable ordering of route body ops within the cluster.
		var routeOps []int
		seen := map[int]bool{}
		for _, id := range rep.Nodes {
			n := l.g.DFG.Nodes[id]
			if n.Kind == ir.OpRoute && !seen[n.BodyOp] {
				seen[n.BodyOp] = true
				routeOps = append(routeOps, n.BodyOp)
			}
		}
		sort.Ints(routeOps)
		regOf := map[int]uint8{}
		for i, bo := range routeOps {
			regOf[bo] = uint8(i % l.cg.NumRegs)
		}
		for _, id := range rep.Nodes {
			n := l.g.DFG.Nodes[id]
			if n.Kind != ir.OpRoute {
				continue
			}
			if _, done := pins[n.BodyOp]; done {
				continue
			}
			// Anchor: earliest placed consumer within this cluster.
			anchor := RelPlace{T: 0, R: 0, C: 0}
			found := false
			for _, ei := range l.g.DFG.OutEdges(id) {
				to := l.g.DFG.Edges[ei].To
				if l.g.ClusterOf(to) != rep.ID {
					continue
				}
				if rel, ok := l.sub.Rel[l.g.DFG.Nodes[to].BodyOp]; ok {
					if !found || rel.T < anchor.T {
						anchor = rel
						found = true
					}
				}
			}
			pins[n.BodyOp] = l.choosePin(rep, id, anchor, regOf[n.BodyOp])
		}
		l.pinRel[idx] = pins
	}
}

// choosePin selects the relay resource of a route node: when its value
// arrives from another PE, the producer-side output register pointed at
// the anchor (crossbar forwarding, no RF traffic — the classic systolic
// dataflow); otherwise a register of the anchor PE.
func (l *layout) choosePin(rep *ir.Cluster, id int, anchor RelPlace, reg uint8) RelPlaceReg {
	regPin := RelPlaceReg{T: anchor.T, R: anchor.R, C: anchor.C, Reg: reg}
	if l.policy == RelayRegistersOnly {
		return regPin
	}
	ins := l.g.DFG.InEdges(id)
	if len(ins) == 0 {
		return regPin
	}
	prod := l.g.DFG.Edges[ins[0]].From
	pc := l.g.ClusterOf(prod)
	if pc == rep.ID {
		if l.g.DFG.Nodes[prod].Kind == ir.OpLoad {
			// Transparent pin: relay straight off the memory read port.
			return RelPlaceReg{T: anchor.T, R: anchor.R, C: anchor.C, Mem: true}
		}
		return regPin
	}
	dxr := l.cp.X[pc] - l.cp.X[rep.ID]
	dyr := l.cp.Y[pc] - l.cp.Y[rep.ID]
	nR, nC := anchor.R, anchor.C
	var dir arch.Dir
	switch {
	case dxr < 0:
		nR, dir = anchor.R-1, arch.South
	case dxr > 0:
		nR, dir = anchor.R+1, arch.North
	case dyr < 0:
		nC, dir = anchor.C-1, arch.East
	case dyr > 0:
		nC, dir = anchor.C+1, arch.West
	default:
		return regPin // same-PE time dependence: hold in the RF
	}
	// The neighbor must exist on the array for the representative (and by
	// signature equality, for every member). On a wrap-around topology
	// every translated neighbor exists, so only bounded fabrics bail out.
	_, br, bc := l.regionBase(rep.ID)
	if !l.cg.Topology.Wraps() && !l.cg.InBounds(br+nR, bc+nC) {
		return regPin
	}
	return RelPlaceReg{T: anchor.T - 1, R: nR, C: nC, Out: true, Dir: dir}
}

// classEnvelope returns the spatial window (in the representative's
// coordinates) that stays on-array under every member's translation: a
// canonical path confined to it can be replicated verbatim everywhere.
func (l *layout) classEnvelope(cl *UniqueClass) (rMin, rMax, cMin, cMax int) {
	if l.cg.Topology.Wraps() {
		// Wrap-around links make every translation a graph automorphism:
		// a path that leaves one edge re-enters the opposite one, so the
		// canonical route replicates verbatim from anywhere on the array.
		return 0, l.cg.Rows - 1, 0, l.cg.Cols - 1
	}
	_, br, bc := l.regionBase(cl.Rep)
	drMin, drMax, dcMin, dcMax := 0, 0, 0, 0
	for _, m := range cl.Members {
		_, mr, mc := l.regionBase(m)
		dr, dc := mr-br, mc-bc
		if dr < drMin {
			drMin = dr
		}
		if dr > drMax {
			drMax = dr
		}
		if dc < dcMin {
			dcMin = dc
		}
		if dc > dcMax {
			dcMax = dc
		}
	}
	return -drMin, l.cg.Rows - 1 - drMax, -dcMin, l.cg.Cols - 1 - dcMax
}
