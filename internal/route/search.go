package route

import (
	"fmt"

	"himap/internal/mrrg"
)

// window is the index space of one search: real cycles [tBase, maxT] of
// the PEs in rows [r0, r0+rows) × columns [c0, c0+cols), slots resource
// slots each. A value changes PE only through an output register's link
// at the next cycle (mrrg.Succ), so a search that spans H = maxT − tBase
// cycles never leaves the bounding box of its seeds grown by H hops:
// RouteSink indexes that box, not the array, and the scratch a search
// needs follows the net instead of the fabric.
type window struct {
	tBase, maxT int
	r0, c0      int
	rows, cols  int
	slots       int
}

// cells is the number of (cycle, PE) pairs in the window.
func (w *window) cells() int { return (w.maxT - w.tBase + 1) * w.rows * w.cols }

// row is the dense index of (cycle, PE row) — the unit the A* core's
// occupancy-key deltas are kept per.
func (w *window) row(t, r int) int { return (t-w.tBase)*w.rows + r - w.r0 }

// cell is the dense index of (cycle, PE), the heuristic cache's key.
func (w *window) cell(t, r, c int) int { return w.row(t, r)*w.cols + c - w.c0 }

// holds reports whether PE (r, c) lies inside the window.
func (w *window) holds(r, c int) bool {
	return r >= w.r0 && r < w.r0+w.rows && c >= w.c0 && c < w.c0+w.cols
}

// scratch is one search working set: flat arrays over the dense real-
// node index space of one search window, invalidated between searches by
// a generation stamp (an entry is live only when its stamp equals the
// current generation). The arrays grow monotonically and are never
// cleared, so steady-state searches allocate nothing. The zero value is
// ready to use.
type scratch struct {
	w      window // of the search in progress
	gen    uint32
	seen   []uint32  // dist/hval/parent valid when seen[i] == gen
	dist   []float64 // tentative cost g
	hval   []float64 // cached heuristic h (A* core)
	key    []uint64  // cached RealKey of node i (A* core)
	parent []int32   // dense index of the predecessor; -1 for seeds
	closed []uint32  // node finalized when closed[i] == gen
	tgt    []uint32  // node is a search target when tgt[i] == gen
	owned  []uint32  // node already belongs to the net when owned[i] == gen
	rdelta []int     // per window row: DenseKey - search index delta
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

// begin opens a new search generation over window w. The per-node arrays
// and the per-cell heuristic cache grow in one step that keeps
// len(seen) == w.slots × len(hseen): the generation restarts only when
// every stamped array is fresh, so a stamp from before a regrowth can
// never read as live after it.
func (sc *scratch) begin(w window) {
	sc.w = w
	if cells := w.cells(); len(sc.hseen) < cells || len(sc.seen) != w.slots*len(sc.hseen) {
		// Grow geometrically: search windows vary net to net, and
		// doubling caps the reallocation count at log of the largest
		// window instead of once per new high-water mark.
		if c := 2 * len(sc.hseen); cells < c {
			cells = c
		}
		n := cells * w.slots
		sc.seen = make([]uint32, n)
		sc.dist = make([]float64, n)
		sc.hval = make([]float64, n)
		sc.key = make([]uint64, n)
		sc.parent = make([]int32, n)
		sc.closed = make([]uint32, n)
		sc.tgt = make([]uint32, n)
		sc.owned = make([]uint32, n)
		sc.hseen = make([]uint32, cells)
		sc.h0 = make([]float64, cells)
		sc.h1 = make([]float64, cells)
		sc.gen = 0 // fresh arrays are all-zero: restart stamping
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

// idxOf packs a node of the search in progress into its dense scratch
// index: the window cell times the slot count, plus the node's slot.
func (s *Session) idxOf(n mrrg.Node) int32 {
	w := &s.sc.w
	return int32(w.cell(n.T, n.R, n.C)*w.slots + s.G.SlotIndex(n.Class, n.Idx))
}

// nodeAt reconstructs the node of a dense scratch index (the inverse of
// idxOf).
func (s *Session) nodeAt(i int32) mrrg.Node {
	w := &s.sc.w
	slot := int(i) % w.slots
	rest := int(i) / w.slots
	c := rest % w.cols
	rest /= w.cols
	cl, idx := s.G.SlotResource(slot)
	return mrrg.Node{T: rest/w.rows + w.tBase, R: rest%w.rows + w.r0, C: c + w.c0, Class: cl, Idx: idx}
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
func (s *Session) heuristicAt(n mrrg.Node, targets []mrrg.Node) float64 {
	sc := &s.sc
	pi := sc.w.cell(n.T, n.R, n.C)
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

// searchWindow returns the index space of extending net to targets.
// Real cycles run from the earliest seed or target (successor times are
// monotone, so nothing before it is reachable) to the latest target
// (nothing after it is useful) — H cycles in all. Space is the bounding
// box of the seeds grown by H hops and clipped to the array: every link
// crossing takes a cycle, so nothing outside it is reachable in time. A
// wrap-around axis keeps its whole extent (a box that crosses the seam
// is not an interval).
func (s *Session) searchWindow(net *Net, targets []mrrg.Node) window {
	w := window{tBase: net.Src.T, maxT: targets[0].T, slots: s.G.SlotsPerPE()}
	r0, r1, c0, c1 := net.Src.R, net.Src.R, net.Src.C, net.Src.C
	for _, t := range targets {
		w.maxT = max(w.maxT, t.T)
		w.tBase = min(w.tBase, t.T)
	}
	for _, p := range net.Paths {
		for _, n := range p {
			w.tBase = min(w.tBase, n.T)
			r0, r1 = min(r0, n.R), max(r1, n.R)
			c0, c1 = min(c0, n.C), max(c1, n.C)
		}
	}
	f := &s.G.Fab
	if f.Topology.Wraps() {
		r0, r1, c0, c1 = 0, f.Rows-1, 0, f.Cols-1
	} else {
		h := w.maxT - w.tBase
		r0, r1 = max(r0-h, 0), min(r1+h, f.Rows-1)
		c0, c1 = max(c0-h, 0), min(c1+h, f.Cols-1)
	}
	w.r0, w.rows, w.c0, w.cols = r0, r1-r0+1, c0, c1-c0+1
	return w
}

// RouteSink extends the net with a least-cost path from any node the net
// already owns to any node of targets. Newly entered nodes are charged to
// the session occupancy (modulo II). The found path starts at an owned
// node and ends at the reached target.
//
// The search runs entirely in the session's generation-stamped scratch
// arrays: per call it allocates only the returned Path (plus scratch
// growth when a search's window is larger than any before it).
func (s *Session) RouteSink(net *Net, targets []mrrg.Node) (Path, float64, error) {
	sc := &s.sc
	if len(targets) == 0 {
		return nil, 0, fmt.Errorf("route: %w: no targets", ErrNoPath)
	}
	sc.begin(s.searchWindow(net, targets))
	w := &sc.w
	gen := sc.gen

	// A target outside the window cannot be reached in time and gets no
	// stamp; heuristicAt still scans every target, so h — and with it the
	// pop order — is what a whole-array index would give.
	for _, t := range targets {
		if w.holds(t.R, t.C) {
			sc.tgt[s.idxOf(t)] = gen
		}
	}
	astar := !s.Legacy
	if astar && s.linearKeys {
		// Dense-key precomputation: DenseKey(node) = search index +
		// rdelta[window row of node], because within one (cycle, PE row)
		// the search index and the dense occupancy key both advance by
		// slots per column.
		sc.rdelta = sc.rdelta[:0]
		f := &s.G.Fab
		for t := w.tBase; t <= w.maxT; t++ {
			tb := s.G.TimeBase(t)
			for r := w.r0; r < w.r0+w.rows; r++ {
				sc.rdelta = append(sc.rdelta, tb+(r*f.Cols+w.c0-w.row(t, r)*w.cols)*w.slots)
			}
		}
	}
	seed := func(n mrrg.Node) {
		if n.T > w.maxT {
			return
		}
		i := s.idxOf(n)
		sc.owned[i] = gen
		sc.seen[i] = gen
		sc.dist[i] = 0
		sc.parent[i] = -1
		if astar {
			h := s.heuristicAt(n, targets)
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
		goal, cost, err = s.searchAStar(net, targets)
	} else {
		goal, cost, err = s.searchDijkstra(net, targets)
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
		path[j] = s.nodeAt(i)
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
func (s *Session) searchDijkstra(net *Net, targets []mrrg.Node) (int32, float64, error) {
	sc := &s.sc
	gen, maxT := sc.gen, sc.w.maxT
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
		cur := s.nodeAt(it.idx)
		base := it.cost
		parent := it.idx
		s.G.Succ(cur, func(m mrrg.Node) {
			if m.T > maxT {
				return
			}
			if s.Filter != nil && !s.Filter(m) {
				return
			}
			mi := s.idxOf(m)
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
func (s *Session) searchAStar(net *Net, targets []mrrg.Node) (int32, float64, error) {
	sc := &s.sc
	w := &sc.w
	gen, maxT := sc.gen, w.maxT
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
		mi := s.idxOf(m)
		nd := gCur
		if sc.owned[mi] != gen {
			var key int
			if s.linearKeys {
				key = int(mi) + sc.rdelta[w.row(m.T, m.R)]
			} else {
				key = s.G.DenseKey(m) // shared-bus collapse: no linear shortcut
			}
			nd += s.enterCostAt(m, key)
		}
		if sc.seen[mi] != gen {
			h := s.heuristicAt(m, targets)
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
		cur := s.nodeAt(i)
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
