package himap

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
	"himap/internal/route"
)

// RouteStats reports step-3 effort, demonstrating the block-size
// independence of the canonical routing work: the nets and rounds, the
// fixed and load slots reserved and the replica nodes charged over all
// rounds, the live region's PEs (the array's when there is none) and the
// rounds the guard sent back to the whole array.
type RouteStats struct {
	CanonicalNets int
	Rounds        int
	Reserved      int
	Charged       int
	LivePEs       int
	Fallbacks     int
}

// routeCanonical performs Algorithm 1 lines 21-27: routes the minimal
// DFG — one canonical net per (unique class, producer op) — under
// negotiated congestion, returning the per-class net plans that the
// replicate stage stamps onto every cluster. ses is the worker's
// session, re-targeted here to the attempt's MRRG. Cancellation is
// polled once per negotiation round: a canceled ctx aborts with an error
// wrapping diag.ErrCanceled within one round's latency.
// A round re-routes in the plan buffers, nets and path arena of the
// round it replaces, which ses recycles. The plans' nets and paths live
// until ses resets.
func (l *layout) routeCanonical(ctx context.Context, ses *route.Session, maxRounds int) ([][]canonNet, RouteStats, error) {
	g := mrrg.New(l.cg, l.iib)
	var stats RouteStats
	stats.LivePEs = l.setLive(ses, g)
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

	plans := make([][]canonNet, len(l.classes))
	var roundErr error
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			roundErr = fmt.Errorf("himap: %w: %v", diag.ErrCanceled, err)
			break
		}
		stats.Rounds = round + 1
		ses.ResetKeepHistory()
		for i := range l.loadRel {
			clear(l.loadRel[i]) // nothing keeps a dropped round's slots
		}
		roundErr = nil

		stats.Reserved += l.reserveFixed(ses)

		routed := 0 // ses.Nets()[:routed] are the nets of the classes routed whole
		for classIdx, cl := range l.classes {
			rep := cl.Rep
			bt, br, bc := l.regionBase(rep)
			nets, err := l.routeClass(ses, g, classIdx, cl, plans[classIdx])
			plans[classIdx] = nets
			if err != nil {
				roundErr = fmt.Errorf("class %d (rep %v): %w", classIdx, l.g.Clusters[cl.Rep].Iter, err)
				break
			}
			routed = len(ses.Nets())
			// Charge the replicas of this class (routes and boundary-load
			// slots) so later classes see the real congestion.
			for _, m := range l.membersOf(classIdx) {
				if m == rep {
					continue
				}
				dt, dr, dc := l.shift(rep, m)
				for i := range nets {
					stats.Charged += ses.ChargeShifted(nets[i].net, dt, dr, dc)
				}
				for _, lr := range l.loadRel[classIdx] {
					if ses.ReserveLive(mrrg.Node{T: bt + lr.T, R: br + lr.R, C: bc + lr.C, Class: mrrg.ClassMemRead}.Shifted(dt, dr, dc)) {
						stats.Reserved++
					}
				}
			}
		}
		if errors.Is(roundErr, route.ErrOutsideLive) {
			// The guard: a read would have left the live region. This
			// round and the rest run on the whole array, as if no region
			// had been set; the history is the same either way.
			l.live, l.members = nil, nil
			ses.DropLive()
			stats.Fallbacks++
			round--
			continue
		}
		if roundErr != nil {
			// Only a search that ran out of visits can end differently
			// once costs move; no path, no memory-read slot and missing
			// pins are facts of the placement and repeat in every round
			// (DESIGN.md, "Negotiation").
			if !errors.Is(roundErr, route.ErrSearchLimit) || len(ses.BumpHistory(ses.Nets()[:routed])) == 0 {
				break
			}
			continue
		}
		if over := ses.BumpHistory(ses.Nets()); len(over) > 0 {
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

// reserveFixed reserves every cluster's fixed placements (FUs and generic
// loads) by translating its representative's: a member has the
// representative's body ops (the signature hashes them), so this is the
// occupancy of reserving nodeAbs of every DFG node, without walking them.
// With a live region set, only the members that reach it are visited and
// only live nodes reserved. It returns the number reserved.
func (l *layout) reserveFixed(ses *route.Session) int {
	n := 0
	for k, cl := range l.classes {
		for _, id := range l.g.Clusters[cl.Rep].Nodes {
			abs, ok := l.nodeAbs(id)
			if !ok {
				continue
			}
			for _, m := range l.membersOf(k) {
				if ses.ReserveLive(abs.Shifted(l.shift(cl.Rep, m))) {
					n++
				}
			}
		}
	}
	return n
}

// membersOf returns the members of class k whose fixed placements and
// replicas can reach the live region: all of them without one.
func (l *layout) membersOf(k int) []int {
	if l.members == nil {
		return l.classes[k].Members
	}
	return l.members[k]
}

// liveHaloPeriods is how far a class's live box reaches past its
// representative's region, in periods of the sub-mapping's depth: a
// sink's search window spans at most the producer's and the consumer's
// periods, and a value crosses at most one link per cycle. It is a
// variable so that a test can shrink it and force the guard.
var liveHaloPeriods = 2

// setLive re-targets ses to g with the attempt's live region, the PEs
// any read of a round can touch (DESIGN.md, "Negotiation"), and returns
// its PE count. Class k's box is its representative's region grown by
// the halo, cut to the bounding box of the region and the class
// envelope: a search enters no PE outside the envelope, and the region
// holds the sources and the boundary-load slots. A box per class, not one
// bounding box, because edge classes' representatives sit on opposite
// edges of the array. A member is kept for class k when its translate of
// the box meets the region; its cell must then lie within the halo of
// the region, which one pass over the clusters tests first. On a torus a
// search keeps each wrapping axis whole, and where the boxes cover the
// array nothing is saved: both route on the whole array.
func (l *layout) setLive(ses *route.Session, g *mrrg.Graph) int {
	l.env, l.live, l.members = make([]route.Box, len(l.classes)), nil, nil
	for k, cl := range l.classes {
		r0, r1, c0, c1 := l.classEnvelope(cl)
		l.env[k] = route.Box{R0: r0, R1: r1, C0: c0, C1: c1}
	}
	if l.cg.Topology.Wraps() {
		return ses.ResetLive(g, nil)
	}
	halo, s1, s2 := liveHaloPeriods*l.sub.Depth, l.sub.S1, l.sub.S2
	boxes := make([]route.Box, len(l.classes))
	for k, cl := range l.classes {
		_, br, bc := l.regionBase(cl.Rep)
		e := l.env[k]
		boxes[k] = route.Box{
			R0: max(min(e.R0, br), br-halo), R1: min(max(e.R1, br+s1-1), br+s1-1+halo),
			C0: max(min(e.C0, bc), bc-halo), C1: min(max(e.C1, bc+s2-1), bc+s2-1+halo),
		}
	}
	pes := ses.ResetLive(g, boxes)
	if pes == l.cg.NumPEs() {
		return pes
	}
	vy := l.cg.Cols / s2
	near := make([]bool, l.cg.Rows/s1*vy) // VSA cells within the halo of the region
	for _, b := range boxes {
		for x := max(b.R0-halo, 0) / s1; x <= min(b.R1+halo, l.cg.Rows-1)/s1; x++ {
			for y := max(b.C0-halo, 0) / s2; y <= min(b.C1+halo, l.cg.Cols-1)/s2; y++ {
				near[x*vy+y] = true
			}
		}
	}
	l.live, l.members = boxes, make([][]int, len(l.classes))
	for m := range l.g.Clusters {
		if !near[l.cp.X[m]*vy+l.cp.Y[m]] {
			continue
		}
		k := l.byClust[m]
		_, dr, dc := l.shift(l.classes[k].Rep, m)
		b := boxes[k]
		b.R0, b.R1, b.C0, b.C1 = b.R0+dr, b.R1+dr, b.C0+dc, b.C1+dc
		for _, o := range boxes {
			if b.Meets(o) {
				l.members[k] = append(l.members[k], m)
				break
			}
		}
	}
	return pes
}

// routeClass routes the canonical nets of one class representative into
// nets, the class's plan buffer from an earlier round: its slots, and the
// sink list each one holds, are reused. The buffer comes back on failure
// too, to serve the next round.
func (l *layout) routeClass(ses *route.Session, g *mrrg.Graph, classIdx int, cl *UniqueClass, nets []canonNet) ([]canonNet, error) {
	d := l.g.DFG
	rep := l.g.Clusters[cl.Rep]
	env := l.env[classIdx]
	defer func(whole, live route.Box) { ses.Envelope, ses.Live = whole, live }(ses.Envelope, ses.Live)
	ses.Envelope = env
	if l.live != nil {
		ses.Live = l.live[classIdx]
	}
	nets = slices.Grow(nets[:0], len(rep.Nodes))

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
			return nets, err
		}
	}

	// One net per producer of the representative, one routed sink per
	// out-edge, in DFG order; each path is committed to the session's
	// occupancy before the next sink's search.
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
				return nets, fmt.Errorf("himap: load %v has no placement: %w", n, diag.ErrPlacementInfeasible)
			}
		case n.Kind == ir.OpRoute:
			pin, ok := l.pinAbs(id)
			if !ok {
				return nets, fmt.Errorf("himap: route %v has no pin: %w", n, diag.ErrPlacementInfeasible)
			}
			src = pin
		default:
			continue // stores have no out-edges
		}
		nets = nets[:len(nets)+1]
		cn := &nets[len(nets)-1]
		*cn = canonNet{SrcID: id, net: ses.NewNet(src), Sinks: slices.Grow(cn.Sinks[:0], len(outs))}
		for _, ei := range outs {
			e := d.Edges[ei]
			to := d.Nodes[e.To]
			targets, err := l.sinkTargets(g, n, src, to, env)
			if err != nil {
				return nets, err
			}
			path, _, err := ses.RouteSink(cn.net, targets)
			if err != nil {
				return nets, fmt.Errorf("net %s -> %s: %w", n.Name, to.Name, err)
			}
			cn.Sinks = append(cn.Sinks, canonSink{ConsumerID: e.To, Port: e.ToPort, Path: path})
		}
	}
	return nets, nil
}
