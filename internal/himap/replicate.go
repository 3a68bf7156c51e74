package himap

import (
	"fmt"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/route"
)

// replicate stamps every class's canonical placements and routes onto all
// of its member clusters (Algorithm 1 line 29), with full conflict
// detection. Final configuration validation is the pipeline's validate
// stage (Config.Validate), not replicate's job.
func (l *layout) replicate(plans [][]canonNet) (*arch.Config, error) {
	cfg := arch.NewConfig(l.cg, l.iib)
	em := route.NewEmitter(cfg)
	d := l.g.DFG

	// Stamp operation placements for every cluster.
	for _, n := range d.Nodes {
		tag := fmt.Sprintf("n%d", n.ID)
		switch {
		case n.Kind.IsCompute():
			abs, _ := l.nodeAbs(n.ID)
			if err := em.PlaceOp(abs, n.Kind, tag); err != nil {
				return nil, err
			}
			if n.HasConst {
				if err := em.SetConstOperand(abs, n.Const, tag+":const"); err != nil {
					return nil, err
				}
			}
		case n.Kind == ir.OpLoad:
			abs, ok := l.nodeAbs(n.ID)
			if !ok {
				abs, ok = l.loadAbs(n.ID)
				if !ok {
					return nil, fmt.Errorf("himap: load %v unplaced at replication: %w", n, diag.ErrPlacementInfeasible)
				}
			}
			elem := fmt.Sprintf("%s@%s", n.Tensor, n.Index.Key())
			if err := em.PlaceLoad(abs, tag, elem); err != nil {
				return nil, err
			}
			cfg.Loads = append(cfg.Loads, arch.IOSpec{
				R: abs.R, C: abs.C,
				Slot:   wrapMod(abs.T, l.iib),
				Phase:  floorDiv(abs.T, l.iib),
				Tensor: n.Tensor,
				Index:  append([]int(nil), n.Index...),
			})
		}
	}

	// Stamp canonical routes, translated to every member.
	for classIdx, cl := range l.classes {
		rep := l.g.Clusters[cl.Rep]
		for _, m := range cl.Members {
			mc := l.g.Clusters[m]
			dt := (l.cp.T[m] - l.cp.T[cl.Rep]) * l.sub.Depth
			dr := (l.cp.X[m] - l.cp.X[cl.Rep]) * l.sub.S1
			dc := (l.cp.Y[m] - l.cp.Y[cl.Rep]) * l.sub.S2
			dIter := mc.Iter.Sub(rep.Iter)
			for _, cn := range plans[classIdx] {
				srcID, ok := l.ix.Find(cn.SrcBody, rep.Iter.Add(dIter).Add(cn.SrcDIter))
				if !ok {
					return nil, fmt.Errorf("himap: replication cannot find source (body %d) for member %v: %w", cn.SrcBody, mc.Iter, diag.ErrReplicaConflict)
				}
				tag := fmt.Sprintf("n%d", srcID)
				for _, sink := range cn.Sinks {
					shifted := make(route.Path, len(sink.Path))
					for i, pn := range sink.Path {
						sn := pn.Shifted(dt, dr, dc)
						// On a torus the translate of an edge-crossing path
						// re-enters the array; fold it onto the real PEs.
						sn.R, sn.C = l.cg.WrapCoord(sn.R, sn.C)
						shifted[i] = sn
					}
					consID, ok := l.ix.Find(sink.ConsumerBody, rep.Iter.Add(dIter).Add(sink.ConsumerDIter))
					if !ok {
						return nil, fmt.Errorf("himap: replication cannot find consumer (body %d) for member %v: %w", sink.ConsumerBody, mc.Iter, diag.ErrReplicaConflict)
					}
					storeElem := ""
					if sink.Kind == ir.OpStore {
						sn := d.Nodes[consID]
						storeElem = fmt.Sprintf("%s@%s", sn.Tensor, sn.Index.Key())
						last := shifted[len(shifted)-1]
						cfg.Stores = append(cfg.Stores, arch.IOSpec{
							R: last.R, C: last.C,
							Slot:   wrapMod(last.T, l.iib),
							Phase:  floorDiv(last.T, l.iib),
							Tensor: sn.Tensor,
							Index:  append([]int(nil), sn.Index...),
						})
					}
					if err := em.EmitPath(shifted, tag, storeElem); err != nil {
						return nil, fmt.Errorf("himap: replication conflict (class %d member %v): %w", classIdx, mc.Iter, err)
					}
					if sink.Kind.IsCompute() {
						abs, _ := l.nodeAbs(consID)
						if err := em.SetOperand(abs, sink.Port, shifted, tag); err != nil {
							return nil, fmt.Errorf("himap: operand conflict (class %d member %v): %w", classIdx, mc.Iter, err)
						}
					}
				}
			}
		}
	}

	return cfg, nil
}

// wrapMod folds t into [0, m).
func wrapMod(t, m int) int { return ((t % m) + m) % m }

// floorDiv is floor(t / m) for positive m.
func floorDiv(t, m int) int {
	return (t - wrapMod(t, m)) / m
}
