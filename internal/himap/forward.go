package himap

import (
	"fmt"
	"himap/internal/diag"

	"himap/internal/ir"
	"himap/internal/systolic"
)

// fwdBodyOpBase is the encoding base for forwarding pseudo route nodes.
// Each distinct (producer body op, unit step) chain role gets a stable
// negative body-op identifier so unique-iteration signatures recognize
// equivalent relays across clusters.
const fwdBodyOpBase = 3000

// ApplyForwarding implements AddForwardingPath (Algorithm 1 lines 14-17):
// every DFG edge whose iteration distance maps to a multi-hop space-time
// offset under the systolic mapping is broken into a chain of single-hop
// steps through pseudo route nodes added to the intermediate iterations.
// It returns the original DFG and ISDG unchanged when no dependence
// needs forwarding, or a rebuilt DFG and its ISDG otherwise. An error
// means the kernel has no valid replication-friendly systolic mapping
// (§V's Floyd-Warshall impossibility discussion) — including a relay
// whose iteration, computed here by stepping from the producer, falls
// outside the block.
func ApplyForwarding(d *ir.DFG, g *ir.ISDG, m *systolic.Mapping) (*ir.DFG, *ir.ISDG, error) {
	needs := false
	for _, dv := range g.DistanceVectors() {
		switch m.Classify(dv) {
		case systolic.DepForward:
			needs = true
		case systolic.DepInvalid:
			return nil, nil, fmt.Errorf("himap: dependence %v invalid under %v: %w", dv, m, diag.ErrSchemeInfeasible)
		}
	}
	if !needs {
		return d, g, nil
	}

	nd := ir.NewDFG(d.Block)
	nd.Grow(len(d.Nodes), len(d.Edges))
	idMap := make([]int, len(d.Nodes))
	for _, n := range d.Nodes {
		nn := nd.AddNode(ir.Node{
			Kind: n.Kind, Name: n.Name, BodyOp: n.BodyOp, Iter: n.Iter,
			Tensor: n.Tensor, Index: n.Index, Const: n.Const, HasConst: n.HasConst,
		})
		idMap[n.ID] = nn.ID
	}

	// Stable chain-role identifiers: (producer body op, unit step) → id.
	roleIDs := map[string]int{}
	roleOf := func(prodBodyOp int, e ir.IterVec) int {
		key := fmt.Sprintf("%d|%s", prodBodyOp, e.Key())
		id, ok := roleIDs[key]
		if !ok {
			id = -(fwdBodyOpBase + len(roleIDs))
			roleIDs[key] = id
		}
		return id
	}
	// Relay nodes already created: (producer node, step) → new node ID.
	relays := map[string]int{}

	for _, edge := range d.Edges {
		from, to := d.Nodes[edge.From], d.Nodes[edge.To]
		cf, ct := g.ClusterOf(edge.From), g.ClusterOf(edge.To)
		var dist ir.IterVec
		if cf != ct {
			dist = to.Iter.Sub(from.Iter)
		}
		if cf == ct || m.Classify(dist) != systolic.DepForward {
			nd.AddEdge(idMap[edge.From], idMap[edge.To], edge.ToPort)
			continue
		}
		e, steps, err := m.ForwardStep(dist)
		if err != nil {
			return nil, nil, err
		}
		role := roleOf(from.BodyOp, e)
		prev := idMap[edge.From]
		for s := 1; s < steps; s++ {
			key := fmt.Sprintf("%d|%s|%d", edge.From, e.Key(), s)
			relay, ok := relays[key]
			if !ok {
				iter := from.Iter.Clone()
				for r := 0; r < s; r++ {
					iter = iter.Add(e)
				}
				rn := nd.AddNode(ir.Node{
					Kind:   ir.OpRoute,
					Name:   fmt.Sprintf("fwd.%s", from.Name),
					BodyOp: role,
					Iter:   iter,
				})
				relay = rn.ID
				relays[key] = relay
				nd.AddEdge(prev, relay, 0)
			}
			prev = relay
		}
		nd.AddEdge(prev, idMap[edge.To], edge.ToPort)
	}
	err := nd.Validate()
	var ng *ir.ISDG
	if err == nil {
		ng, err = ir.BuildISDG(nd)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("himap: forwarding transform produced invalid DFG: %v: %w", err, diag.ErrSchemeInfeasible)
	}
	return nd, ng, nil
}
