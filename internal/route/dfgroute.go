package route

import (
	"context"
	"fmt"
	"time"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/mrrg"
)

// BuildDFG unrolls the kernel's block DFG for a flat placement backend
// and enforces the backend's node wall, emitting the dfg-build span on
// tr. A block past maxNodes fails with a diag.ErrTooLarge StageError
// stamped with the dfg-build stage, before the DFG is materialized when
// the body-op count per iteration (a lower bound on nodes) already
// exceeds the wall: huge blocks (TTM at b=64: 16.7M iterations) would
// otherwise allocate tens of gigabytes only to be refused.
func BuildDFG(k *kernel.Kernel, fab arch.Fabric, block []int, maxNodes int, tr diag.Tracer) (*ir.DFG, error) {
	tooLarge := func(nodes int) error {
		return diag.Failf(diag.ErrTooLarge, "%d nodes exceed the %d-node wall", nodes, maxNodes).
			Stamp("dfg-build", k.Name, fab.String(), 0)
	}
	if lower := ir.BoxSize(block) * len(k.Body); lower > maxNodes {
		return nil, tooLarge(lower)
	}
	start := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping
	d, err := k.BuildDFG(block)
	if err != nil {
		return nil, err
	}
	tr.Emit(diag.Span{Stage: "dfg-build", Wall: time.Since(start),
		Counters: map[string]int64{"nodes": int64(len(d.Nodes))}})
	if len(d.Nodes) > maxNodes {
		return nil, tooLarge(len(d.Nodes))
	}
	return d, nil
}

// Placement assigns one DFG node a slot in the time-extended fabric: real
// (unwrapped) cycle T and PE coordinates (R, C). Placement backends — the
// conventional SA mapper and the exact branch-and-bound mapper — decide
// these slots; RouteDFG decides the wires.
type Placement struct {
	T, R, C int
}

// RouteDFG performs detailed routing of every edge of a placed block DFG
// over ses.G — the fabric's MRRG at the mapping's II, both taken from it —
// and emits the validated configuration. It resets ses to ses.G first, so
// the caller's session, re-targeted once per II with Session.Reset,
// serves every placement routed at that II; the nets go back to the
// session's freelist between rounds and on return. pl[i] is the slot of
// d.Nodes[i]: loads claim the PE's memory read port, stores its write
// port, everything else the FU. rounds bounds the PathFinder
// negotiated-congestion iterations; on unresolved congestion the error
// wraps diag.ErrRouteCongested. Cancellation is polled once per
// negotiation round: a canceled ctx fails the route with an error
// wrapping diag.ErrCanceled within one round's latency.
//
// The routed net order (topological producer order, sinks in out-edge
// order) and the op comments ("n<id>") are part of the deterministic
// output contract: callers' mapping fingerprints depend on them.
func RouteDFG(ctx context.Context, ses *Session, d *ir.DFG, pl []Placement, rounds int) (*arch.Config, error) {
	g := ses.G
	cg, ii := g.Fab, g.II
	ses.Reset(g)
	var nets []*Net // of the round in progress
	defer func() {
		for _, net := range nets {
			ses.FreeNet(net)
		}
	}()
	placeNode := func(id int) mrrg.Node {
		n := d.Nodes[id]
		p := pl[id]
		switch n.Kind {
		case ir.OpLoad:
			return g.MemReadNode(p.T, p.R, p.C)
		case ir.OpStore:
			return g.MemWriteNode(p.T, p.R, p.C)
		default:
			return g.FUNode(p.T, p.R, p.C)
		}
	}
	order, _ := d.TopoOrder()

	var targets []mrrg.Node
	netOf := make([]*Net, len(d.Nodes))
	routeAll := func() error {
		for _, id := range order {
			n := d.Nodes[id]
			if n.Kind == ir.OpStore || len(d.OutEdges(id)) == 0 {
				continue
			}
			net := ses.NewNet(placeNode(id))
			netOf[id] = net
			nets = append(nets, net)
			for _, ei := range d.OutEdges(id) {
				e := d.Edges[ei]
				to := d.Nodes[e.To]
				// One buffer from sink to sink: RouteSink does not
				// retain its targets.
				if to.Kind == ir.OpStore {
					targets = append(targets[:0], placeNode(e.To))
				} else {
					cp := pl[e.To]
					targets = g.AppendOperandTargets(targets[:0], cp.T, cp.R, cp.C)
				}
				if _, _, err := ses.RouteSink(net, targets); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, id := range order {
		if d.Nodes[id].Kind == ir.OpStore {
			continue // the producer's routed path claims the write port
		}
		ses.Reserve(placeNode(id))
	}
	ok := false
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("route: %w: %v", diag.ErrCanceled, err)
		}
		for _, net := range nets {
			ses.Release(net)
			ses.FreeNet(net)
		}
		nets = nets[:0]
		if err := routeAll(); err != nil {
			return nil, err
		}
		if len(ses.BumpHistory(nets)) == 0 {
			ok = true
			break
		}
	}
	if !ok {
		return nil, fmt.Errorf("route: %w at II %d", diag.ErrRouteCongested, ii)
	}

	// One record → replay with a zero shift: the flat DFG is its own and
	// only translate, so a ref is the node id itself.
	cfg := arch.NewConfig(cg, ii)
	em := NewEmitter(cfg, d)
	tmpl := em.NewTemplate()
	ids := make([]int32, len(d.Nodes))
	for _, id := range order {
		ids[id] = int32(id)
		n := d.Nodes[id]
		pn := placeNode(id)
		var err error
		switch {
		case n.Kind.IsCompute():
			err = tmpl.PlaceOp(pn, n.Kind, id)
			if n.HasConst {
				tmpl.SetConstOperand(pn, n.Const, id)
			}
		case n.Kind == ir.OpRoute:
			// A flat placement backend has no routing pseudo-ops.
			err = tmpl.PlaceMove(pn, id)
		case n.Kind == ir.OpLoad:
			err = tmpl.PlaceLoad(pn, id)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, id := range order {
		net := netOf[id]
		if net == nil {
			continue
		}
		outs := d.OutEdges(id)
		for i, path := range net.Paths {
			e := d.Edges[outs[i]]
			if err := tmpl.EmitPath(path, id, e.To); err != nil {
				return nil, err
			}
			if to := d.Nodes[e.To]; to.Kind.IsCompute() || to.Kind == ir.OpRoute {
				if err := tmpl.SetOperand(placeNode(e.To), e.ToPort, path, id); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := em.Replay(tmpl, 0, 0, 0, ids); err != nil {
		return nil, err
	}
	// The flat backends label a load by its tensor alone.
	for _, n := range d.Nodes {
		if n.Kind == ir.OpLoad {
			cfg.At(pl[n.ID].R, pl[n.ID].C, pl[n.ID].T).MemRead.Tag = n.Tensor
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}
