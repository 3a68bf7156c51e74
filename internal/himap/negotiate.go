package himap

import (
	"context"
	"errors"
	"fmt"

	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
	"himap/internal/route"
)

// RouteStats reports step-3 effort, demonstrating the block-size
// independence of the canonical routing work.
type RouteStats struct {
	CanonicalNets int
	Rounds        int
}

// routeCanonical performs Algorithm 1 lines 21-27: routes the minimal
// DFG — one canonical net per (unique class, producer op) — under
// negotiated congestion, returning the per-class net plans that the
// replicate stage stamps onto every cluster. ses is the attempt's wave
// slot session, re-targeted here to the attempt's MRRG. Cancellation is
// polled once per negotiation round: a canceled ctx aborts with an error
// wrapping diag.ErrCanceled within one round's latency.
func (l *layout) routeCanonical(ctx context.Context, ses *route.Session, maxRounds int) ([][]canonNet, RouteStats, error) {
	g := mrrg.New(l.cg, l.iib)
	ses.Reset(g)
	var stats RouteStats
	// Provable-infeasibility pre-check: on bandwidth-constrained fabrics,
	// forced link departures of the placed schedule are counted against
	// the fabric's lanes before any congestion negotiation is attempted.
	if err := l.checkBandwidth(); err != nil {
		return nil, stats, err
	}
	l.computePins()
	l.loadRel = make([]map[int]RelPlace, len(l.classes))
	for i := range l.loadRel {
		l.loadRel[i] = map[int]RelPlace{}
	}

	var plans [][]canonNet
	var allNets []*route.Net
	var roundErr error
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("himap: %w: %v", diag.ErrCanceled, err)
		}
		stats.Rounds = round + 1
		ses.ResetKeepHistory()
		for i := range l.loadRel {
			clear(l.loadRel[i]) // nothing keeps a dropped round's slots
		}
		// Nothing references a dropped round's nets once its history is
		// bumped — recycle their storage so later rounds re-route
		// allocation-free.
		for _, nets := range plans {
			for i := range nets {
				ses.FreeNet(nets[i].net)
			}
		}
		plans = plans[:0]
		roundErr = nil

		// Reserve every cluster's fixed placements (FUs and generic loads).
		for _, n := range l.g.DFG.Nodes {
			if abs, ok := l.nodeAbs(n.ID); ok {
				ses.Reserve(abs)
			}
		}

		allNets = allNets[:0]
		for classIdx, cl := range l.classes {
			rep := cl.Rep
			bt, br, bc := l.regionBase(rep)
			nets, err := l.routeClass(ses, g, classIdx, cl)
			if err != nil {
				roundErr = fmt.Errorf("class %d (rep %v): %w", classIdx, l.g.Clusters[cl.Rep].Iter, err)
				break
			}
			plans = append(plans, nets)
			for i := range nets {
				allNets = append(allNets, nets[i].net)
			}
			// Charge the replicas of this class (routes and boundary-load
			// slots) so later classes see the real congestion.
			for _, m := range cl.Members {
				if m == rep {
					continue
				}
				mt, mr, mc := l.regionBase(m)
				dt, dr, dc := mt-bt, mr-br, mc-bc
				for i := range nets {
					ses.ChargeShifted(nets[i].net, dt, dr, dc)
				}
				for _, lr := range l.loadRel[classIdx] {
					ses.Reserve(mrrg.Node{T: mt + lr.T, R: mr + lr.R, C: mc + lr.C, Class: mrrg.ClassMemRead})
				}
			}
		}
		if roundErr != nil {
			// Only a search that ran out of visits can end differently
			// once costs move; no path, no memory-read slot and missing
			// pins are facts of the placement and repeat in every round
			// (DESIGN.md, "Negotiation").
			if !errors.Is(roundErr, route.ErrSearchLimit) || len(ses.BumpHistory(allNets)) == 0 {
				return nil, stats, roundErr
			}
			continue
		}
		if over := ses.BumpHistory(allNets); len(over) > 0 {
			show := over
			if len(show) > 4 {
				show = show[:4]
			}
			roundErr = fmt.Errorf("himap: %d resources oversubscribed (e.g. %v): %w", len(over), show, diag.ErrRouteCongested)
			continue
		}
		break
	}
	if roundErr != nil {
		return nil, stats, roundErr
	}
	for _, nets := range plans {
		stats.CanonicalNets += len(nets)
	}
	return plans, stats, nil
}

// routeClass routes the canonical nets of one class representative.
func (l *layout) routeClass(ses *route.Session, g *mrrg.Graph, classIdx int, cl *UniqueClass) ([]canonNet, error) {
	d := l.g.DFG
	rep := l.g.Clusters[cl.Rep]
	rMin, rMax, cMin, cMax := l.classEnvelope(cl)
	env := route.Box{R0: rMin, R1: rMax, C0: cMin, C1: cMax}
	defer func(whole route.Box) { ses.Envelope = whole }(ses.Envelope)
	ses.Envelope = env

	// Choose memory slots for boundary loads first (they act as sources).
	for _, id := range rep.Nodes {
		n := d.Nodes[id]
		if n.Kind != ir.OpLoad {
			continue
		}
		if _, generic := l.sub.Rel[n.BodyOp]; generic {
			continue
		}
		if err := l.chooseBoundaryLoad(ses, classIdx, id); err != nil {
			return nil, err
		}
	}

	// One net per producer of the representative, one routed sink per
	// out-edge, in DFG order; each path is committed to the session's
	// occupancy before the next sink's search.
	nets := make([]canonNet, 0, len(rep.Nodes))
	for _, id := range rep.Nodes {
		outs := d.OutEdges(id)
		if len(outs) == 0 {
			continue
		}
		n := d.Nodes[id]
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
				return nil, fmt.Errorf("himap: load %v has no placement: %w", n, diag.ErrPlacementInfeasible)
			}
		case n.Kind == ir.OpRoute:
			pin, ok := l.pinAbs(id)
			if !ok {
				return nil, fmt.Errorf("himap: route %v has no pin: %w", n, diag.ErrPlacementInfeasible)
			}
			src = pin
		default:
			continue // stores have no out-edges
		}
		cn := canonNet{SrcID: id, net: ses.NewNet(src), Sinks: make([]canonSink, 0, len(outs))}
		for _, ei := range outs {
			e := d.Edges[ei]
			to := d.Nodes[e.To]
			targets, err := l.sinkTargets(g, n, src, to, env)
			if err != nil {
				return nil, err
			}
			path, _, err := ses.RouteSink(cn.net, targets)
			if err != nil {
				return nil, fmt.Errorf("net %s -> %s: %w", n.Name, to.Name, err)
			}
			cn.Sinks = append(cn.Sinks, canonSink{ConsumerID: e.To, Port: e.ToPort, Path: path})
		}
		nets = append(nets, cn)
	}
	return nets, nil
}
