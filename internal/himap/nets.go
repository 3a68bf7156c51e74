package himap

import (
	"fmt"
	"math"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
	"himap/internal/route"
)

// canonSink is one sink of a canonical net: the representative's
// consumer node, the port it is consumed on, and the routed path.
type canonSink struct {
	ConsumerID int
	Port       int
	Path       route.Path
}

// canonNet is one canonically-routed signal of a class representative.
type canonNet struct {
	SrcID int // DFG node ID in the rep cluster
	Sinks []canonSink
	net   *route.Net
}

// sinkTargets builds, in the layout's reused target buffer, the nodes at
// which the value of producer n (placed at src) may be handed to
// consumer to, confined to the class envelope. It reads placement
// geometry only, never occupancy.
func (l *layout) sinkTargets(g *mrrg.Graph, n *ir.Node, src mrrg.Node, to *ir.Node, env route.Box) ([]mrrg.Node, error) {
	tgt := l.tgtBuf[:0]
	switch {
	case to.Kind.IsCompute():
		abs, ok := l.nodeAbs(to.ID)
		if !ok {
			return nil, fmt.Errorf("himap: consumer %v unplaced: %w", to, diag.ErrPlacementInfeasible)
		}
		tgt = g.AppendOperandTargets(tgt, abs.T, abs.R, abs.C)
	case to.Kind == ir.OpRoute:
		pin, ok := l.pinAbs(to.ID)
		if !ok {
			return nil, fmt.Errorf("himap: route consumer %v has no pin: %w", to, diag.ErrPlacementInfeasible)
		}
		l.tgtBuf = append(tgt, pin)
		return l.tgtBuf, nil
	case to.Kind == ir.OpStore:
		tgt = l.appendStoreTargets(tgt, g, to.ID, src.T)
	default:
		return nil, fmt.Errorf("himap: bad consumer kind %v: %w", to.Kind, diag.ErrPlacementInfeasible)
	}
	l.tgtBuf = tgt
	kept := tgt[:0]
	for _, tn := range tgt {
		if env.Holds(tn.R, tn.C) {
			kept = append(kept, tn)
		}
	}
	if len(kept) == 0 {
		if to.Kind == ir.OpStore && l.cg.Mem != arch.MemAll {
			return nil, diag.Failf(diag.ErrMemPortInfeasible,
				"himap: no memory-write port reachable for store %s within its region on the %s fabric", to.Name, l.cg)
		}
		return nil, fmt.Errorf("himap: no replicable delivery for %s -> %s (class envelope too tight): %w", n.Name, to.Name, diag.ErrReplicaConflict)
	}
	return kept, nil
}

// appendStoreTargets appends candidate memory write ports for a store
// node to dst: any cycle of its cluster's region window at or after the
// producer.
func (l *layout) appendStoreTargets(dst []mrrg.Node, g *mrrg.Graph, id int, fromT int) []mrrg.Node {
	ci := l.g.ClusterOf(id)
	bt, br, bc := l.regionBase(ci)
	out := dst
	lo := fromT
	if bt > lo {
		lo = bt
	}
	for t := lo; t < lo+2*l.sub.Depth; t++ {
		for r := br; r < br+l.sub.S1; r++ {
			for c := bc; c < bc+l.sub.S2; c++ {
				if !l.cg.MemCapable(r, c) {
					continue
				}
				out = append(out, g.MemWriteNode(t, r, c))
			}
		}
	}
	return out
}

// chooseBoundaryLoad picks a memory-read slot for a load that has no
// generic relative placement, by MAP()'s slot search (claimMemRead): its
// first consumer's own port, or else the nearest memory-capable PE of the
// cluster's region, at the latest free cycle that reaches the consumer.
func (l *layout) chooseBoundaryLoad(ses *route.Session, classIdx, id int) error {
	d := l.g.DFG
	n := d.Nodes[id]
	ci := l.g.ClusterOf(id)
	bt, br, bc := l.regionBase(ci)
	// Anchor on the first consumer.
	consT, consR, consC := bt, br, bc
	slack := 0
	for _, ei := range d.OutEdges(id) {
		to := d.Edges[ei].To
		tn := d.Nodes[to]
		if abs, ok := l.nodeAbs(to); ok {
			consT, consR, consC = abs.T, abs.R, abs.C
			break
		}
		if tn.Kind == ir.OpRoute {
			pinRel, ok := l.pinRel[classIdx][tn.BodyOp]
			if ok && pinRel.Mem {
				// Transparent pin: the load itself is the relay; schedule it
				// at the route's anchor so the ALU can consume FromMem.
				consT, consR, consC = bt+pinRel.T, br+pinRel.R, bc+pinRel.C
				break
			}
			if pin, ok2 := l.pinAbs(to); ok2 {
				consT, consR, consC = pin.T, pin.R, pin.C
				slack = 1 // reaching a register pin takes at least one cycle
				break
			}
		}
	}
	// Negative real cycles wrap into the previous schedule period — in
	// steady state the load simply issues during the preceding block's
	// window (classic software pipelining) — so no floor applies.
	region := route.Box{R0: br, R1: br + l.sub.S1 - 1, C0: bc, C1: bc + l.sub.S2 - 1}
	scan := region // the PEs claimMemRead reads: the consumer's own port, else the region's
	if l.cg.MemCapable(consR, consC) {
		scan = route.Box{R0: consR, R1: consR, C0: consC, C1: consC}
	}
	if err := ses.CheckLive(scan); err != nil {
		return err
	}
	if mr, ok := claimMemRead(ses, l.cg, consT, consR, consC, slack, 3*l.sub.Depth, math.MinInt, region); ok {
		l.loadRel[classIdx][n.BodyOp] = RelPlace{T: mr.T - bt, R: mr.R - br, C: mr.C - bc, Kind: PlaceMemRead}
		return nil
	}
	if l.cg.MemCapable(consR, consC) {
		return fmt.Errorf("himap: no memory-read slot for boundary load %v: %w: %w", n, diag.ErrMemPortInfeasible, diag.ErrRouteCongested)
	}
	return diag.Failf(diag.ErrMemPortInfeasible,
		"himap: no memory-read slot for boundary load %v on the %s fabric", n, l.cg)
}
