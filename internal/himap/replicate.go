package himap

import (
	"fmt"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/route"
)

// classTemplate is one unique class's recorded emission: place holds
// the representative's ops and loads, wire its canonical nets. Each
// template's refs name, relative to the cluster being stamped, the nodes
// whose ids the template's values and memory labels resolve to.
type classTemplate struct {
	place, wire         *route.Template
	placeRefs, wireRefs []nodeRef
	loads, stores       int // the memory stamps each member adds
}

// replicate stamps every class's canonical placements and routes onto all
// of its member clusters (Algorithm 1 line 29): each class is recorded
// once from its representative, then replayed onto every member by
// translation, with full conflict detection per member. Final
// configuration validation is the pipeline's validate stage
// (Config.Validate), not replicate's job.
func (l *layout) replicate(plans [][]canonNet) (*arch.Config, error) {
	cfg := arch.NewConfig(l.cg, l.iib)
	d := l.g.DFG
	em := route.NewEmitter(cfg, d)
	tmpls := make([]classTemplate, len(l.classes))
	loads, stores := 0, 0
	for classIdx, cl := range l.classes {
		var err error
		if tmpls[classIdx], err = l.recordClass(em, classIdx, plans[classIdx]); err != nil {
			return nil, err
		}
		loads += tmpls[classIdx].loads * len(cl.Members)
		stores += tmpls[classIdx].stores * len(cl.Members)
	}
	// Every member stamps its memory accesses afresh: size the lists once.
	cfg.Loads = make([]arch.IOSpec, 0, loads)
	cfg.Stores = make([]arch.IOSpec, 0, stores)

	// Ops and loads, cluster by cluster: clusters are numbered in DFG node
	// order, which is the order cfg.Loads lists the memory reads in.
	var ids []int32
	for _, mc := range l.g.Clusters {
		classIdx := l.byClust[mc.ID]
		ct := &tmpls[classIdx]
		var err error
		if ids, err = resolve(d, ids[:0], ct.placeRefs, mc.Iter); err != nil {
			return nil, err
		}
		dt, dr, dc := l.shift(l.classes[classIdx].Rep, mc.ID)
		if err := em.Replay(ct.place, dt, dr, dc, ids); err != nil {
			return nil, err
		}
	}

	// Canonical routes, translated to every member.
	for classIdx, cl := range l.classes {
		ct := &tmpls[classIdx]
		for _, m := range cl.Members {
			mc := l.g.Clusters[m]
			var err error
			if ids, err = resolve(d, ids[:0], ct.wireRefs, mc.Iter); err != nil {
				return nil, err
			}
			dt, dr, dc := l.shift(cl.Rep, m)
			if err := em.Replay(ct.wire, dt, dr, dc, ids); err != nil {
				return nil, fmt.Errorf("himap: replication conflict (class %d member %v): %w", classIdx, mc.Iter, err)
			}
		}
	}
	return cfg, nil
}

// recordClass runs the emission rules over one class representative: its
// compute ops and loads at their placed slots, and every canonical net's
// paths and consumer ports. A consumer's slot is the representative's —
// class members agree on the relative placement of every dependence sink
// — so a member looks nothing up beyond its refs: the net sources, and
// every sink's consumer (which labels a store, and must exist for any
// sink).
func (l *layout) recordClass(em *route.Emitter, classIdx int, nets []canonNet) (classTemplate, error) {
	d := l.g.DFG
	rep := l.g.Clusters[l.classes[classIdx].Rep]
	ct := classTemplate{place: em.NewTemplate(), wire: em.NewTemplate()}
	for _, id := range rep.Nodes {
		n := d.Nodes[id]
		ref := len(ct.placeRefs)
		switch {
		case n.Kind.IsCompute():
			abs, _ := l.nodeAbs(id)
			if err := ct.place.PlaceOp(abs, n.Kind, ref); err != nil {
				return ct, err
			}
			if n.HasConst {
				ct.place.SetConstOperand(abs, n.Const, ref)
			}
		case n.Kind == ir.OpLoad:
			abs, ok := l.nodeAbs(id)
			if !ok {
				if abs, ok = l.loadAbs(id); !ok {
					return ct, fmt.Errorf("himap: load %v unplaced at replication: %w", n, diag.ErrPlacementInfeasible)
				}
			}
			if err := ct.place.PlaceLoad(abs, ref); err != nil {
				return ct, err
			}
			ct.loads++
		default:
			continue
		}
		ct.placeRefs = append(ct.placeRefs, refOf(d, n, rep.Iter))
	}
	for _, cn := range nets {
		src := len(ct.wireRefs)
		ct.wireRefs = append(ct.wireRefs, refOf(d, d.Nodes[cn.SrcID], rep.Iter))
		for _, sink := range cn.Sinks {
			to := d.Nodes[sink.ConsumerID]
			cons := len(ct.wireRefs)
			ct.wireRefs = append(ct.wireRefs, refOf(d, to, rep.Iter))
			if err := ct.wire.EmitPath(sink.Path, src, cons); err != nil {
				return ct, fmt.Errorf("himap: replication conflict (class %d): %w", classIdx, err)
			}
			if to.Kind == ir.OpStore {
				ct.stores++
			} else if to.Kind.IsCompute() {
				abs, _ := l.nodeAbs(sink.ConsumerID)
				if err := ct.wire.SetOperand(abs, sink.Port, sink.Path, src); err != nil {
					return ct, fmt.Errorf("himap: operand conflict (class %d): %w", classIdx, err)
				}
			}
		}
	}
	return ct, nil
}
