package himap

import (
	"fmt"

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

// pendingSink is one fully-constructed sink of a pending net: its target
// set (the [tgt0, tgt1) range of the layout's target arena) plus the
// replication metadata, built before any routing so that independent
// nets can route concurrently.
type pendingSink struct {
	tgt0, tgt1 int
	meta       canonSink
	fromName   string
	toName     string
}

// pendingNet is a canonical net with every sink target constructed but
// nothing routed yet; its sinks are the [sink0, sink1) range of the
// layout's sink arena. lo/hi bound every real cycle its search can
// touch: seeds (source and earlier sink paths) and targets all live in
// [lo, hi], and search edges never step outside [min seed T, max target
// T]. Two pending nets with disjoint wrapped-cycle windows therefore
// read and write provably disjoint occupancy.
type pendingNet struct {
	cn           canonNet
	sink0, sink1 int
	lo, hi       int
}

// buildClassNets constructs the pending nets of one class representative
// in canonical order. On a construction error it returns the nets built
// so far — including the partially-built failing net, whose earlier
// sinks the historical loop had already routed — alongside the error.
func (l *layout) buildClassNets(ses *route.Session, g *mrrg.Graph, cl *UniqueClass, inEnv func(mrrg.Node) bool) ([]pendingNet, error) {
	pend, err := l.buildClassNetsInto(l.pendBuf[:0], ses, g, cl, inEnv)
	l.pendBuf = pend // keep the grown backing array for the next class
	return pend, err
}

// filterTgtArena drops the out-of-envelope nodes of the target arena's
// tail [t0:] in place.
func (l *layout) filterTgtArena(t0 int, inEnv func(mrrg.Node) bool) {
	out := l.tgtBuf[:t0]
	for _, n := range l.tgtBuf[t0:] {
		if inEnv(n) {
			out = append(out, n)
		}
	}
	l.tgtBuf = out
}

func (l *layout) buildClassNetsInto(pend []pendingNet, ses *route.Session, g *mrrg.Graph, cl *UniqueClass, inEnv func(mrrg.Node) bool) ([]pendingNet, error) {
	d := l.g.DFG
	rep := l.g.Clusters[cl.Rep]
	l.sinkBuf = l.sinkBuf[:0]
	l.tgtBuf = l.tgtBuf[:0]
	for _, id := range rep.Nodes {
		n := d.Nodes[id]
		if len(d.OutEdges(id)) == 0 {
			continue
		}
		var src mrrg.Node
		switch {
		case n.Kind.IsCompute():
			src, _ = l.nodeAbs(id)
		case n.Kind == ir.OpLoad:
			if abs, ok := l.nodeAbs(id); ok {
				src = abs
			} else if abs, ok := l.loadAbs(id); ok {
				src = abs
			} else {
				return pend, fmt.Errorf("himap: load %v has no placement: %w", n, diag.ErrPlacementInfeasible)
			}
		case n.Kind == ir.OpRoute:
			pin, ok := l.pinAbs(id)
			if !ok {
				return pend, fmt.Errorf("himap: route %v has no pin: %w", n, diag.ErrPlacementInfeasible)
			}
			src = pin
		default:
			continue // stores have no out-edges
		}
		p := pendingNet{
			cn:    canonNet{SrcID: id, net: ses.NewNet(src)},
			sink0: len(l.sinkBuf), sink1: len(l.sinkBuf),
			lo: src.T, hi: src.T,
		}
		for _, ei := range d.OutEdges(id) {
			e := d.Edges[ei]
			to := d.Nodes[e.To]
			t0 := len(l.tgtBuf)
			var err error
			switch {
			case to.Kind.IsCompute():
				abs, ok := l.nodeAbs(e.To)
				if !ok {
					err = fmt.Errorf("himap: consumer %v unplaced: %w", to, diag.ErrPlacementInfeasible)
					break
				}
				l.tgtBuf = g.AppendOperandTargets(l.tgtBuf, abs.T, abs.R, abs.C)
				l.filterTgtArena(t0, inEnv)
			case to.Kind == ir.OpRoute:
				pin, ok := l.pinAbs(e.To)
				if !ok {
					err = fmt.Errorf("himap: route consumer %v has no pin: %w", to, diag.ErrPlacementInfeasible)
					break
				}
				l.tgtBuf = append(l.tgtBuf, pin)
			case to.Kind == ir.OpStore:
				l.tgtBuf = l.appendStoreTargets(l.tgtBuf, g, e.To, src.T)
				l.filterTgtArena(t0, inEnv)
				if len(l.tgtBuf) == t0 && l.cg.Mem != arch.MemAll {
					err = diag.Failf(diag.ErrMemPortInfeasible,
						"himap: no memory-write port reachable for store %s within its region on the %s fabric", to.Name, l.cg)
				}
			default:
				err = fmt.Errorf("himap: bad consumer kind %v: %w", to.Kind, diag.ErrPlacementInfeasible)
			}
			if err == nil && len(l.tgtBuf) == t0 {
				err = fmt.Errorf("himap: no replicable delivery for %s -> %s (class envelope too tight): %w", n.Name, to.Name, diag.ErrReplicaConflict)
			}
			if err != nil {
				p.sink1 = len(l.sinkBuf)
				pend = append(pend, p)
				return pend, err
			}
			for _, tn := range l.tgtBuf[t0:] {
				if tn.T < p.lo {
					p.lo = tn.T
				}
				if tn.T > p.hi {
					p.hi = tn.T
				}
			}
			l.sinkBuf = append(l.sinkBuf, pendingSink{
				tgt0:     t0,
				tgt1:     len(l.tgtBuf),
				fromName: n.Name,
				toName:   to.Name,
				meta:     canonSink{ConsumerID: e.To, Port: e.ToPort},
			})
		}
		p.sink1 = len(l.sinkBuf)
		pend = append(pend, p)
	}
	return pend, nil
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
// generic relative placement: on its first consumer's PE, at the latest
// free cycle not after the consumer.
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
				bt2, br2, bc2 := l.regionBase(ci)
				consT, consR, consC = bt2+pinRel.T, br2+pinRel.R, bc2+pinRel.C
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
	// window (classic software pipelining).
	if l.cg.MemCapable(consR, consC) {
		for back := slack; back < 3*l.sub.Depth; back++ {
			t := consT - back
			mr := mrrg.Node{T: t, R: consR, C: consC, Class: mrrg.ClassMemRead}
			if ses.Occ(mr) > 0 {
				continue
			}
			ses.Reserve(mr)
			l.loadRel[classIdx][n.BodyOp] = RelPlace{T: t - bt, R: consR - br, C: consC - bc, Kind: PlaceMemRead}
			return nil
		}
		return fmt.Errorf("himap: no memory-read slot for boundary load %v: %w: %w", n, diag.ErrMemPortInfeasible, diag.ErrRouteCongested)
	}
	// The consumer sits on a compute-only PE: issue the load on the
	// nearest memory-capable PE of the cluster's region, early enough for
	// the value to cover the Manhattan distance to the consumer.
	for _, pe := range memPEsByDist(l.cg, consR, consC) {
		r, c := pe[0], pe[1]
		if r < br || r >= br+l.sub.S1 || c < bc || c >= bc+l.sub.S2 {
			continue
		}
		lo := absInt(r-consR) + absInt(c-consC)
		if slack > lo {
			lo = slack
		}
		for back := lo; back < 3*l.sub.Depth; back++ {
			t := consT - back
			mr := mrrg.Node{T: t, R: r, C: c, Class: mrrg.ClassMemRead}
			if ses.Occ(mr) > 0 {
				continue
			}
			ses.Reserve(mr)
			l.loadRel[classIdx][n.BodyOp] = RelPlace{T: t - bt, R: r - br, C: c - bc, Kind: PlaceMemRead}
			return nil
		}
	}
	return diag.Failf(diag.ErrMemPortInfeasible,
		"himap: no memory-read slot for boundary load %v on the %s fabric", n, l.cg)
}
