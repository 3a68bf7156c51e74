package ir

// IOPort describes one input or output node of an IDFG: a DFG node outside
// the iteration cluster that directly connects to a node inside it
// (V^I of §IV), annotated with the iteration-distance of the connection.
type IOPort struct {
	Inside  int     // DFG node ID inside the cluster
	Outside int     // DFG node ID outside the cluster
	Port    int     // consumer input port (for inputs: port on Inside; for outputs: port on Outside)
	Dist    IterVec // Outside.Iter - Inside.Iter (inputs: negative of the dependence distance)
}

// IDFG is the Intra-iteration Data-Flow Graph D”_i of a cluster: the
// cluster's own nodes (computation nodes V^F) plus its interface to the
// rest of the DFG (input/output nodes V^I).
type IDFG struct {
	Cluster *Cluster
	DFG     *DFG
	Comp    []int  // node IDs inside the cluster
	Inner   []Edge // edges with both endpoints inside
	Inputs  []IOPort
	Outputs []IOPort
}

// ExtractIDFG builds the IDFG of cluster ci of the ISDG.
func ExtractIDFG(g *ISDG, ci int) *IDFG {
	c := g.Clusters[ci]
	f := &IDFG{Cluster: c, DFG: g.DFG}
	f.Comp = append(f.Comp, c.Nodes...)
	for _, id := range c.Nodes {
		for _, ei := range g.DFG.InEdges(id) {
			e := g.DFG.Edges[ei]
			if g.ClusterOf(e.From) == ci {
				f.Inner = append(f.Inner, e)
				continue
			}
			from := g.DFG.Nodes[e.From]
			f.Inputs = append(f.Inputs, IOPort{
				Inside:  id,
				Outside: e.From,
				Port:    e.ToPort,
				Dist:    from.Iter.Sub(c.Iter),
			})
		}
		for _, ei := range g.DFG.OutEdges(id) {
			e := g.DFG.Edges[ei]
			if g.ClusterOf(e.To) == ci {
				continue // recorded once as Inner on the consumer side
			}
			to := g.DFG.Nodes[e.To]
			f.Outputs = append(f.Outputs, IOPort{
				Inside:  id,
				Outside: e.To,
				Port:    e.ToPort,
				Dist:    to.Iter.Sub(c.Iter),
			})
		}
	}
	return f
}

// NumCompute returns the number of FU-occupying nodes of the IDFG.
func (f *IDFG) NumCompute() int {
	n := 0
	for _, id := range f.Comp {
		if f.DFG.Nodes[id].Kind.IsCompute() {
			n++
		}
	}
	return n
}
