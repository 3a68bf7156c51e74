package route

import (
	"fmt"

	"himap/internal/mrrg"
)

// scratch is one search working set: flat arrays over the dense real-
// node index space of one search, invalidated between searches by a
// generation stamp (an entry is live only when its stamp equals the
// current generation). The arrays grow monotonically and are never
// cleared, so steady-state searches allocate nothing. The zero value is
// ready to use.
type scratch struct {
	gen    uint32
	seen   []uint32  // dist/hval/parent valid when seen[i] == gen
	dist   []float64 // tentative cost g
	hval   []float64 // cached heuristic h (A* core)
	key    []uint64  // cached RealKey of node i (A* core)
	parent []int32   // dense index of the predecessor; -1 for seeds
	closed []uint32  // node finalized when closed[i] == gen
	tgt    []uint32  // node is a search target when tgt[i] == gen
	owned  []uint32  // node already belongs to the net when owned[i] == gen
	tdelta []int     // per relative cycle: DenseKey - search index delta
	hits   []int32   // targets popped while draining the goal bucket
	heap   minHeap   // legacy core frontier
	bq     bucketQueue

	// The heuristic depends only on a node's (cycle, PE) and whether its
	// class is Out — not on the slot — so it is computed once per
	// (cycle, PE) into h0 (general) / h1 (Out credit) when first touched
	// (hseen stamp), not once per node: a SlotsPerPE-fold saving on the
	// per-search target loops.
	hseen []uint32
	h0    []float64
	h1    []float64
}

// begin opens a new search generation over n dense indices (npe of them
// per slot — the (cycle, PE) space the heuristic cache is keyed by).
func (sc *scratch) begin(n, npe int) {
	if len(sc.seen) < n {
		// Grow geometrically: search windows vary net to net, and
		// doubling caps the reallocation count at log of the largest
		// window instead of once per new high-water mark.
		if c := 2 * len(sc.seen); n < c {
			n = c
		}
		sc.seen = make([]uint32, n)
		sc.dist = make([]float64, n)
		sc.hval = make([]float64, n)
		sc.key = make([]uint64, n)
		sc.parent = make([]int32, n)
		sc.closed = make([]uint32, n)
		sc.tgt = make([]uint32, n)
		sc.owned = make([]uint32, n)
		sc.gen = 0 // fresh arrays are all-zero: restart stamping
	}
	if len(sc.hseen) < npe {
		if c := 2 * len(sc.hseen); npe < c {
			npe = c
		}
		sc.hseen = make([]uint32, npe)
		sc.h0 = make([]float64, npe)
		sc.h1 = make([]float64, npe)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 { // generation counter wrapped: purge stale stamps
		clear(sc.seen)
		clear(sc.closed)
		clear(sc.tgt)
		clear(sc.owned)
		clear(sc.hseen)
		sc.gen = 1
	}
	sc.heap = sc.heap[:0]
	sc.hits = sc.hits[:0]
	sc.bq.reset()
}

// nodeAt reconstructs the node of a dense scratch index (the inverse of
// the packing in RouteSink).
func (s *Session) nodeAt(i int32, tBase, pes, cols, slots int) mrrg.Node {
	slot := int(i) % slots
	rest := int(i) / slots
	pe := rest % pes
	cl, idx := s.G.SlotResource(slot)
	return mrrg.Node{T: rest/pes + tBase, R: pe / cols, C: pe % cols, Class: cl, Idx: idx}
}

// heuristicAt is the admissible, consistent lower bound on the remaining
// cost from n to the cheapest target, minimized over targets:
//
//	0.7·hops + 0.3·Δcycles
//
// where hops is the topology link distance to the target's PE and
// Δcycles = target cycle − n's cycle. Each of the Δcycles time-advancing
// edges enters a node costing ≥ 0.3, and each of the hops link crossings
// additionally requires entering an output register at 1.0 (0.7 beyond
// the 0.3 its time step already accounts for); when n itself is an
// output register it can source the first crossing, so one 0.7 premium
// is waived (the Out lane). A target is unreachable — skipped — when
// Δcycles < hops (every crossing takes a full cycle) or Δcycles < 0
// (time is monotone); a node with no reachable target returns -1 and is
// pruned outright. Search paths never pass through net-owned (cost-0)
// nodes — those are all seeds, and edges into them never relax — so
// every remaining entry really does pay its class base cost. Consistency
// (h(n) ≤ enterCost(m) + h(m) along every Succ edge) is exactly tight on
// crossings into output registers (Δh = 1.0) and into RF write ports
// (Δh = 0.3); see DESIGN.md for the per-edge-class case analysis.
//
// It depends only on the node's (cycle, PE, is-Out), so the per-target
// loop runs once per (cycle, PE) of a search, cached in the scratch
// (both the general and the Out-credit lanes fill from one target scan).
func (s *Session) heuristicAt(sc *scratch, n mrrg.Node, targets []mrrg.Node, tBase, pes, cols int) float64 {
	pi := (n.T-tBase)*pes + n.R*cols + n.C
	if sc.hseen[pi] != sc.gen {
		sc.hseen[pi] = sc.gen
		h0, h1 := -1.0, -1.0
		for _, t := range targets {
			dt := t.T - n.T
			if dt < 0 {
				continue // time is monotone: target already in the past
			}
			d := s.G.Fab.HopDist(n.R, n.C, t.R, t.C)
			if dt < d {
				continue // each link crossing takes a cycle: unreachable
			}
			ht := 0.3 * float64(dt)
			v0 := 0.7*float64(d) + ht
			if d > 0 {
				d--
			}
			v1 := 0.7*float64(d) + ht
			if h0 < 0 || v0 < h0 {
				h0 = v0
			}
			if h1 < 0 || v1 < h1 {
				h1 = v1
			}
		}
		sc.h0[pi] = h0
		sc.h1[pi] = h1
	}
	if n.Class == mrrg.ClassOut {
		return sc.h1[pi]
	}
	return sc.h0[pi]
}

// RouteSink extends the net with a least-cost path from any node the net
// already owns to any node of targets. Newly entered nodes are charged to
// the session occupancy (modulo II). The found path starts at an owned
// node and ends at the reached target.
//
// The search runs entirely in the session's generation-stamped scratch
// arrays: per call it allocates only the returned Path (plus one-time
// scratch growth when a search spans more cycles than any before it).
func (s *Session) RouteSink(net *Net, targets []mrrg.Node) (Path, float64, error) {
	sc := &s.sc
	if len(targets) == 0 {
		return nil, 0, fmt.Errorf("route: %w: no targets", ErrNoPath)
	}
	// The dense per-search index space covers real cycles [tBase, maxT]:
	// tBase is the earliest seed or target (successor times are monotone,
	// so nothing before it is reachable), maxT the latest target (nothing
	// after it is useful).
	maxT, tBase := targets[0].T, targets[0].T
	for _, t := range targets {
		if t.T > maxT {
			maxT = t.T
		}
		if t.T < tBase {
			tBase = t.T
		}
	}
	if net.Src.T < tBase {
		tBase = net.Src.T
	}
	for _, p := range net.Paths {
		for _, n := range p {
			if n.T < tBase {
				tBase = n.T
			}
		}
	}

	pes := s.G.Fab.NumPEs()
	cols := s.G.Fab.Cols
	slots := s.G.SlotsPerPE()
	sc.begin((maxT-tBase+1)*pes*slots, (maxT-tBase+1)*pes)
	gen := sc.gen
	idxOf := func(n mrrg.Node) int32 {
		return int32(((n.T-tBase)*pes+n.R*cols+n.C)*slots + s.G.SlotIndex(n.Class, n.Idx))
	}

	for _, t := range targets {
		sc.tgt[idxOf(t)] = gen
	}
	astar := !s.Legacy
	if astar {
		// Dense-key precomputation: DenseKey(node) = search index +
		// tdelta[node.T - tBase], because within one cycle the search
		// index and the dense occupancy key share the (pe, slot) layout.
		sc.tdelta = sc.tdelta[:0]
		stride := pes * slots
		for tr := 0; tr <= maxT-tBase; tr++ {
			sc.tdelta = append(sc.tdelta, s.G.TimeBase(tBase+tr)-tr*stride)
		}
	}
	seed := func(n mrrg.Node) {
		if n.T > maxT {
			return
		}
		i := idxOf(n)
		sc.owned[i] = gen
		sc.seen[i] = gen
		sc.dist[i] = 0
		sc.parent[i] = -1
		if astar {
			h := s.heuristicAt(sc, n, targets, tBase, pes, cols)
			if h < 0 {
				return // no target reachable from this seed in time
			}
			sc.hval[i] = h
			sc.key[i] = mrrg.RealKey(n)
			sc.bq.push(heapItem{cost: h, key: sc.key[i], idx: i})
			return
		}
		sc.heap.push(heapItem{cost: 0, key: mrrg.RealKey(n), idx: i})
	}
	seed(net.Src)
	for _, p := range net.Paths {
		for _, n := range p {
			seed(n)
		}
	}

	var goal int32
	var cost float64
	var err error
	if astar {
		goal, cost, err = s.searchAStar(sc, net, targets, idxOf, tBase, maxT, pes, cols, slots)
	} else {
		goal, cost, err = s.searchDijkstra(sc, net, targets, idxOf, tBase, maxT, pes, cols, slots)
	}
	if err != nil {
		return nil, 0, err
	}
	n := 0
	for i := goal; ; {
		n++
		p := sc.parent[i]
		if p < 0 {
			break
		}
		i = p
	}
	path := make(Path, n)
	for i, j := goal, n-1; ; j-- {
		path[j] = s.nodeAt(i, tBase, pes, cols, slots)
		p := sc.parent[i]
		if p < 0 {
			break
		}
		i = p
	}
	s.commit(net, path)
	return path, cost, nil
}

// searchDijkstra is the legacy core: a plain Dijkstra over one global
// binary heap, returning at the first target popped. Kept bit-identical
// to the historical router for the differential equivalence tests.
func (s *Session) searchDijkstra(sc *scratch, net *Net, targets []mrrg.Node,
	idxOf func(mrrg.Node) int32, tBase, maxT, pes, cols, slots int) (int32, float64, error) {
	gen := sc.gen
	visits := 0
	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		if sc.closed[it.idx] == gen {
			continue
		}
		sc.closed[it.idx] = gen
		visits++
		if visits > s.MaxVisits {
			return 0, 0, fmt.Errorf("route: %w (limit %d)", ErrSearchLimit, s.MaxVisits)
		}
		if sc.tgt[it.idx] == gen {
			return it.idx, it.cost, nil
		}
		cur := s.nodeAt(it.idx, tBase, pes, cols, slots)
		base := it.cost
		parent := it.idx
		s.G.Succ(cur, func(m mrrg.Node) {
			if m.T > maxT {
				return
			}
			if s.Filter != nil && !s.Filter(m) {
				return
			}
			mi := idxOf(m)
			if sc.closed[mi] == gen {
				return
			}
			nd := base
			if sc.owned[mi] != gen {
				nd += s.enterCost(m)
			}
			if sc.seen[mi] != gen || nd < sc.dist[mi] {
				sc.seen[mi] = gen
				sc.dist[mi] = nd
				sc.parent[mi] = parent
				sc.heap.push(heapItem{cost: nd, key: mrrg.RealKey(m), idx: mi})
			}
		})
	}
	return 0, 0, fmt.Errorf("route: %w from net %d (src %v) to %v", ErrNoPath, net.ID, net.Src, targets[0])
}

// searchAStar is the default core: A* over the Dial bucket queue. Pops
// follow the exact (f, RealKey) order; parent slots are claimed by the
// order-independent rule "equal tentative cost → smaller predecessor
// RealKey wins"; when the first target pops, the rest of its deci bucket
// is drained (same-cost parent claims and same-cost targets all live
// there) and the (cost, RealKey)-minimal hit is committed — the same
// target, path, and cost the legacy core returns.
func (s *Session) searchAStar(sc *scratch, net *Net, targets []mrrg.Node,
	idxOf func(mrrg.Node) int32, tBase, maxT, pes, cols, slots int) (int32, float64, error) {
	gen := sc.gen
	visits := 0
	goalBucket := -1
	var gCur float64
	var iCur int32
	var curKey uint64
	relax := func(m mrrg.Node) {
		if m.T > maxT {
			return
		}
		if s.Filter != nil && !s.Filter(m) {
			return
		}
		mi := idxOf(m)
		nd := gCur
		if sc.owned[mi] != gen {
			key := int(mi) + sc.tdelta[m.T-tBase]
			if !s.linearKeys {
				key = s.G.DenseKey(m) // shared-bus collapse: no linear shortcut
			}
			nd += s.enterCostAt(m, key)
		}
		if sc.seen[mi] != gen {
			h := s.heuristicAt(sc, m, targets, tBase, pes, cols)
			if h < 0 {
				return // no target reachable in time: prune
			}
			sc.seen[mi] = gen
			sc.hval[mi] = h
			sc.key[mi] = mrrg.RealKey(m)
			sc.dist[mi] = nd
			sc.parent[mi] = iCur
			sc.bq.push(heapItem{cost: nd + h, key: sc.key[mi], idx: mi})
			return
		}
		if nd < sc.dist[mi] {
			sc.dist[mi] = nd
			sc.parent[mi] = iCur
			if sc.closed[mi] == gen {
				sc.closed[mi] = 0 // reopen (ulp-scale improvement)
			}
			sc.bq.push(heapItem{cost: nd + sc.hval[mi], key: sc.key[mi], idx: mi})
			return
		}
		if nd == sc.dist[mi] {
			// Deterministic, pop-order-independent parent tie-break: the
			// predecessor with the smaller RealKey keeps the slot (exactly
			// the first relaxer in Dijkstra's (g, key) pop order). Seeds
			// (parent -1) are path heads and are never re-parented.
			if p := sc.parent[mi]; p >= 0 && curKey < sc.key[p] {
				sc.parent[mi] = iCur
			}
		}
	}
	for {
		if goalBucket >= 0 {
			if sc.bq.n == 0 || sc.bq.peek() > goalBucket {
				break
			}
		} else if sc.bq.n == 0 {
			return 0, 0, fmt.Errorf("route: %w from net %d (src %v) to %v", ErrNoPath, net.ID, net.Src, targets[0])
		}
		it := sc.bq.pop()
		i := it.idx
		if sc.closed[i] == gen {
			continue
		}
		if it.cost > sc.dist[i]+sc.hval[i] {
			continue // superseded by a cheaper later push
		}
		sc.closed[i] = gen
		if goalBucket < 0 {
			visits++
			if visits > s.MaxVisits {
				return 0, 0, fmt.Errorf("route: %w (limit %d)", ErrSearchLimit, s.MaxVisits)
			}
		}
		if sc.tgt[i] == gen {
			// Targets are hits, not relay points: collect and keep
			// draining the bucket so every same-cost target (and every
			// same-cost parent claim on the winning path) is seen.
			if goalBucket < 0 {
				goalBucket = sc.bq.cur
			}
			sc.hits = append(sc.hits, i)
			continue
		}
		cur := s.nodeAt(i, tBase, pes, cols, slots)
		gCur = sc.dist[i]
		iCur = i
		curKey = sc.key[i]
		s.G.Succ(cur, relax)
	}
	goal := sc.hits[0]
	for _, hi := range sc.hits[1:] {
		if sc.dist[hi] < sc.dist[goal] ||
			(sc.dist[hi] == sc.dist[goal] && sc.key[hi] < sc.key[goal]) {
			goal = hi
		}
	}
	return goal, sc.dist[goal], nil
}
