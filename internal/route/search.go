package route

import (
	"fmt"
	"math"

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

// row is the dense index of (cycle, PE row) — the unit the occupancy-key
// deltas are kept per.
func (w *window) row(t, r int) int { return (t-w.tBase)*w.rows + r - w.r0 }

// cell is the dense index of (cycle, PE), the heuristic cache's key.
func (w *window) cell(t, r, c int) int { return w.row(t, r)*w.cols + c - w.c0 }

// holds reports whether PE (r, c) lies inside the window.
func (w *window) holds(r, c int) bool {
	return r >= w.r0 && r < w.r0+w.rows && c >= w.c0 && c < w.c0+w.cols
}

// scratch is one search working set: flat arrays over the dense real-
// node index space of one search window, 20 bytes a node, invalidated
// between searches by a generation stamp. A node's stamp word holds the
// generation that last wrote it above flagBits flags; a word from an
// earlier generation reads as all flags clear. The arrays grow
// monotonically and are cleared only when the generation wraps, so
// steady-state searches allocate nothing. The zero value is ready to use.
type scratch struct {
	w      window    // of the search in progress
	gen    uint32    // below genLimit
	stamp  []uint32  // gen<<flagBits | flags of node i
	dist   []float64 // tentative cost g; -Inf once the lookahead pruned the node
	hval   []int32   // lookahead cost-to-go h, in deci units
	parent []int32   // dense index of the predecessor; -1 for seeds
	rdelta []int     // per window row: DenseKey - search index delta
	hits   []int32   // targets popped while draining the goal bucket
	bq     bucketQueue

	// Lookahead state of the search in progress: the targets the
	// table is read for, and the hop distance from each window PE to each
	// target, filled when a PE is first touched (hopGen stamp; one spare
	// row after the window's serves a PE outside it).
	tg     []target
	hop    []int16
	hopGen []uint32

	// The node being expanded, read by relax.
	gCur   float64
	iCur   int32
	curKey uint64
}

// The flags of a stamp word. dist, hval and parent are valid only under
// flagSeen.
const (
	flagSeen   = 1 << iota // reached by this search
	flagClosed             // finalized
	flagTgt                // a target of this search
	flagOwned              // already belongs to the net: a seed at cost 0
	flagBits   = 4
	genLimit   = 1 << (32 - flagBits) // begin purges the stamps on reaching it
)

// has reports whether node i carries flag f in the search in progress.
func (sc *scratch) has(i int32, f uint32) bool {
	w := sc.stamp[i]
	return w>>flagBits == sc.gen && w&f != 0
}

// set gives node i flag f in the search in progress.
func (sc *scratch) set(i int32, f uint32) {
	if w := sc.stamp[i]; w>>flagBits == sc.gen {
		sc.stamp[i] = w | f
	} else {
		sc.stamp[i] = sc.gen<<flagBits | f
	}
}

// target is one search target as the lookahead reads it.
type target struct {
	t, r, c int
	off     int // offset of the target class's block in the lookahead table
}

// cell is one (cycle, PE) of the search window: what relax and costToGo
// need to know about a node besides its slot.
type cell struct {
	base    int32  // dense index of the cell's slot 0
	t, r, c int    // real cycle, array row and column
	kd      int    // occupancy key of a slot = base + kd + its occupancy slot
	key     uint64 // RealKey of the cell's slot 0
}

// begin opens a new search generation over window w. The per-cell stamps
// and the per-node arrays each grow only when w outgrows them, to the
// larger of w and twice their length: windows vary net to net and, on a
// session re-targeted to another fabric, in slot count, and doubling
// bounds both the reallocations and every array at twice the largest
// window. The generation restarts only on a wrap: a fresh array is all
// zero and a kept one holds only earlier stamps, so neither reads as live.
func (sc *scratch) begin(w window) {
	sc.w = w
	cells := w.cells()
	if len(sc.hopGen) < cells {
		sc.hopGen = make([]uint32, max(cells, 2*len(sc.hopGen)))
	}
	if n := cells * w.slots; len(sc.stamp) < n {
		n = max(n, 2*len(sc.stamp))
		sc.stamp = make([]uint32, n)
		sc.dist = make([]float64, n)
		sc.hval = make([]int32, n)
		sc.parent = make([]int32, n)
	}
	sc.gen++
	if sc.gen == genLimit { // generation counter wrapped: purge stale stamps
		clear(sc.stamp)
		clear(sc.hopGen)
		sc.gen = 1
	}
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

// keyAt returns the RealKey of the node at a dense scratch index, decoded
// as nodeAt decodes it. A frontier entry carries its own node's key; the
// tie-breaks that compare another node's decode it here.
func (s *Session) keyAt(i int32) uint64 {
	w := &s.sc.w
	ci := int(i) / w.slots
	row := ci / w.cols
	return keyOrigin + uint64(row/w.rows+w.tBase)*keyPerCycle + uint64(row%w.rows+w.r0)*keyPerRow +
		uint64(ci%w.cols+w.c0)*keyPerCol + s.slotTab[int(i)%w.slots].key
}

// RealKey is linear in (cycle, row, column): the search derives a
// node's key from its cell's and a per-slot offset instead of packing a
// mrrg.Node per relaxed edge.
var (
	keyOrigin   = mrrg.RealKey(mrrg.Node{})
	keyPerCycle = mrrg.RealKey(mrrg.Node{T: 1}) - keyOrigin
	keyPerRow   = mrrg.RealKey(mrrg.Node{R: 1}) - keyOrigin
	keyPerCol   = mrrg.RealKey(mrrg.Node{C: 1}) - keyOrigin
)

// cellAt returns the window cell of PE (r, c) at real cycle t. rdelta
// must be filled (openLookahead).
func (s *Session) cellAt(t, r, c int) cell {
	w := &s.sc.w
	row := w.row(t, r)
	return cell{
		base: int32((row*w.cols + c - w.c0) * w.slots),
		t:    t, r: r, c: c,
		kd:  s.sc.rdelta[row],
		key: keyOrigin + uint64(t)*keyPerCycle + uint64(r)*keyPerRow + uint64(c)*keyPerCol,
	}
}

// openLookahead prepares the bound of the search begin just opened:
// the occupancy-key delta of every window row, the target list and a
// lookahead table deep enough for the window.
func (s *Session) openLookahead(targets []mrrg.Node) {
	sc := &s.sc
	w := &sc.w
	// DenseKey(node) = search index + rdelta[window row of node] (with
	// the slot's occupancy slot in place of the slot, see slotInfo.occ):
	// within one (cycle, PE row) the search index and the dense
	// occupancy key both advance by slots per column.
	sc.rdelta = sc.rdelta[:0]
	cols := s.G.Fab.Cols
	for t := w.tBase; t <= w.maxT; t++ {
		tb := s.G.TimeBase(t)
		for r := w.r0; r < w.r0+w.rows; r++ {
			sc.rdelta = append(sc.rdelta, tb+(r*cols+w.c0-w.row(t, r)*w.cols)*w.slots)
		}
	}
	if h := w.maxT - w.tBase; s.la == nil || s.la.depth < h {
		s.la = lookaheadFor(h)
	}
	lw := s.la.depth + 1
	sc.tg = sc.tg[:0]
	for _, t := range targets {
		sc.tg = append(sc.tg, target{t: t.T, r: t.R, c: t.C, off: int(classKind[t.Class]) * numKinds * lw * lw})
	}
	if need := (w.rows*w.cols + 1) * len(targets); len(sc.hop) < need {
		sc.hop = make([]int16, max(need, 2*len(sc.hop)))
	}
}

// hopsOf returns the hop distance from PE (r, c) to every target of the
// search, cached per window PE.
func (s *Session) hopsOf(r, c int) []int16 {
	sc := &s.sc
	w := &sc.w
	nt := len(sc.tg)
	pe := w.rows * w.cols // the spare row: a link's far end outside the window
	if w.holds(r, c) {
		pe = (r-w.r0)*w.cols + c - w.c0
		if sc.hopGen[pe] == sc.gen {
			return sc.hop[pe*nt : (pe+1)*nt]
		}
		sc.hopGen[pe] = sc.gen
	}
	hops := sc.hop[pe*nt : (pe+1)*nt]
	for i := range sc.tg {
		hops[i] = int16(s.G.Fab.HopDist(r, c, sc.tg[i].r, sc.tg[i].c))
	}
	return hops
}

// costToGo is the A* bound of the node at slot of cell c: the least
// uncongested cost from it to any target in deci units, read from the
// lookahead table (lookahead.go), or -1 when no target is reachable in
// time — such a node is pruned outright. Its readers divide by 10 where
// they add it to a cost. An output register's kind depends on the
// target: its link leads one hop closer to some targets and away from
// others, so the far end's distance is looked up per target too — also
// when the far end lies outside the search window.
func (s *Session) costToGo(c *cell, slot int) int32 {
	sc := &s.sc
	si := &s.slotTab[slot]
	hops := s.hopsOf(c.r, c.c)
	kind := int(si.kind)
	var far []int16
	if si.class == mrrg.ClassOut {
		f := &s.G.Fab
		if np := s.links[(c.r*f.Cols+c.c)*s.lay.nd+int(si.idx)]; np >= 0 {
			far = s.hopsOf(int(np)/f.Cols, int(np)%f.Cols)
		}
	}
	la := s.la
	lw := la.depth + 1
	best := int32(laInf)
	for i := range sc.tg {
		tg := &sc.tg[i]
		dt, d := tg.t-c.t, int(hops[i])
		if dt < 0 || d > dt {
			continue // time is monotone, and each link crossing takes a cycle
		}
		k := kind
		if far != nil {
			k = kindOutSame + int(far[i]) - d
		}
		best = min(best, la.ctg[tg.off+(k*lw+dt)*lw+d])
	}
	if best == laInf {
		return -1
	}
	return best
}

// searchWindow returns the index space of extending net to targets.
// Real cycles run from the earliest seed or target (successor times are
// monotone, so nothing before it is reachable) to the latest target
// (nothing after it is useful) — H cycles in all. Space is the bounding
// box of the seeds grown by H hops and clipped to the array: every link
// crossing takes a cycle, so nothing outside it is reachable in time. A
// wrap-around axis keeps its whole extent (a box that crosses the seam
// is not an interval). That box is clipped again to the bounding box of
// the envelope and the seeds: the search enters no PE outside the
// envelope, and a seed out there stays a seed.
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
	f, e := &s.G.Fab, &s.Envelope
	h := w.maxT - w.tBase
	if f.Topology.Wraps() {
		h = f.Rows + f.Cols // the whole array
	}
	r0, r1 = max(r0-h, 0, min(e.R0, r0)), min(r1+h, f.Rows-1, max(e.R1, r1))
	c0, c1 = max(c0-h, 0, min(e.C0, c0)), min(c1+h, f.Cols-1, max(e.C1, c1))
	w.r0, w.rows, w.c0, w.cols = r0, r1-r0+1, c0, c1-c0+1
	return w
}

// RouteSink extends the net with a least-cost path from any node the net
// already owns to any node of targets. Newly entered nodes are charged to
// the session occupancy (modulo II). The found path starts at an owned
// node and ends at the reached target; it is carved from the session's
// path arena and stays valid until the next Reset, ResetKeepHistory or
// RipUp. targets is not retained.
//
// The search runs entirely in the session's generation-stamped scratch
// arrays and the path comes from the arena: a call allocates only when
// the scratch, the arena or the net's lists must grow.
func (s *Session) RouteSink(net *Net, targets []mrrg.Node) (Path, float64, error) {
	sc := &s.sc
	if len(targets) == 0 {
		return nil, 0, fmt.Errorf("route: %w: no targets", ErrNoPath)
	}
	win := s.searchWindow(net, targets)
	if err := s.CheckLive(Box{R0: win.r0, R1: win.r0 + win.rows - 1, C0: win.c0, C1: win.c0 + win.cols - 1}); err != nil {
		return nil, 0, err
	}
	sc.begin(win)
	w := &sc.w

	// A target outside the window cannot be reached in time and gets no
	// stamp; the lookahead still reads every target, and finds this one
	// out of reach of every node the search can touch.
	for _, t := range targets {
		if w.holds(t.R, t.C) {
			sc.set(s.idxOf(t), flagTgt)
		}
	}
	s.openLookahead(targets)
	seed := func(n mrrg.Node) {
		if n.T > w.maxT {
			return
		}
		i := s.idxOf(n)
		sc.set(i, flagOwned|flagSeen)
		sc.dist[i] = 0
		sc.parent[i] = -1
		c := s.cellAt(n.T, n.R, n.C)
		slot := int(i - c.base)
		h := s.costToGo(&c, slot)
		if h < 0 {
			return // no target reachable from this seed in time
		}
		sc.hval[i] = h
		sc.bq.push(heapItem{cost: float64(h) / 10, key: c.key + s.slotTab[slot].key, idx: i})
	}
	seed(net.Src)
	for _, p := range net.Paths {
		for _, n := range p {
			seed(n)
		}
	}

	goal, cost, err := s.searchAStar(net, targets)
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
	path := s.carvePath(n)
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

// searchAStar is A* over the Dial bucket queue. Pops follow the exact
// (f, RealKey) order; parent slots are claimed by the order-independent
// rule "equal tentative cost → smaller predecessor RealKey wins"; when
// the first target pops, the rest of its deci bucket is drained
// (same-cost parent claims and same-cost targets all live there) and the
// (cost, RealKey)-minimal hit is committed.
//
// Successors are enumerated in index space, mirroring mrrg.Succ edge for
// edge: a popped index is decoded into its cell once, a successor on the
// same PE is the cell's base plus the successor's slot (one window
// stride further for the next cycle), and a link's far end comes from
// the graph's link table. mrrg.Succ stays the reference — the
// map-Dijkstra oracle of the tests enumerates with it.
func (s *Session) searchAStar(net *Net, targets []mrrg.Node) (int32, float64, error) {
	sc := &s.sc
	w := &sc.w
	g := s.G
	maxT := w.maxT
	cols := g.Fab.Cols
	lay := &s.lay
	stride := int32(w.rows * w.cols * w.slots) // index distance of one cycle
	visits := 0
	goalBucket := -1
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
		if sc.has(i, flagClosed) {
			continue
		}
		if it.cost > sc.dist[i]+float64(sc.hval[i])/10 {
			continue // superseded by a cheaper later push
		}
		sc.set(i, flagClosed)
		s.closedNodes++
		if goalBucket < 0 {
			visits++
			if visits > s.MaxVisits {
				return 0, 0, fmt.Errorf("route: %w (limit %d)", ErrSearchLimit, s.MaxVisits)
			}
		}
		if sc.has(i, flagTgt) {
			// Targets are hits, not relay points: collect and keep
			// draining the bucket so every same-cost target (and every
			// same-cost parent claim on the winning path) is seen.
			if goalBucket < 0 {
				goalBucket = sc.bq.cur
			}
			sc.hits = append(sc.hits, i)
			continue
		}
		sc.gCur, sc.iCur, sc.curKey = sc.dist[i], i, it.key

		// Decode the index once: slot, window column, (cycle, PE row).
		ci := int(i) / w.slots
		slot := int(i) - ci*w.slots
		row := ci / w.cols
		t := row/w.rows + w.tBase
		cur := cell{base: i - int32(slot), t: t, r: row%w.rows + w.r0, c: ci - row*w.cols + w.c0, kd: sc.rdelta[row]}
		cur.key = sc.curKey - s.slotTab[slot].key
		inEnv := s.Envelope.Holds(cur.r, cur.c)
		here := inEnv && g.ValidTime(t)      // same-cycle edges stay on this PE
		next := t < maxT && g.ValidTime(t+1) // edges into the next cycle
		nxt := cell{base: cur.base + stride, t: t + 1, r: cur.r, c: cur.c, key: cur.key + keyPerCycle}
		if next {
			nxt.kd = sc.rdelta[row+w.rows]
		}
		stay := next && inEnv // next-cycle edges that stay on this PE
		switch si := &s.slotTab[slot]; si.class {
		case mrrg.ClassFU, mrrg.ClassMemRead:
			// Freshly produced value: output registers, the RF write
			// port, the store port.
			if here {
				s.fanOut(&cur, true)
			}
		case mrrg.ClassOut:
			if !next {
				break
			}
			if np := int(s.links[(cur.r*cols+cur.c)*lay.nd+int(si.idx)]); np >= 0 {
				// Arrives at the link's far end next cycle.
				if nr, nc := np/cols, np%cols; s.Envelope.Holds(nr, nc) {
					far := s.cellAt(t+1, nr, nc)
					s.fanOut(&far, true)
				}
			}
			if stay {
				s.relax(&nxt, slot) // hold
			}
		case mrrg.ClassRFWrite:
			if stay {
				for k := 0; k < g.Fab.NumRegs; k++ {
					s.relax(&nxt, lay.reg+k)
				}
			}
		case mrrg.ClassReg:
			if stay {
				s.relax(&nxt, slot) // hold
			}
			if here {
				s.relax(&cur, lay.rfr) // read this cycle
			}
		case mrrg.ClassRFRead:
			if here {
				s.fanOut(&cur, false)
			}
		}
	}
	goal := sc.hits[0]
	for _, hi := range sc.hits[1:] {
		if sc.dist[hi] < sc.dist[goal] ||
			(sc.dist[hi] == sc.dist[goal] && s.keyAt(hi) < s.keyAt(goal)) {
			goal = hi
		}
	}
	return goal, sc.dist[goal], nil
}

// fanOut relaxes the crossbar successors of a value present at cell c:
// every output register that has a link, the RF write port when rfw is
// set (a value read back from the RF does not re-enter it), and the
// store port on a memory-capable PE.
func (s *Session) fanOut(c *cell, rfw bool) {
	f := &s.G.Fab
	nd := s.lay.nd
	pe := (c.r*f.Cols + c.c) * nd
	for d := 0; d < nd; d++ {
		if s.links[pe+d] >= 0 {
			s.relax(c, 1+d)
		}
	}
	if rfw {
		s.relax(c, s.lay.rfw)
	}
	if f.MemCapable(c.r, c.c) {
		s.relax(c, s.lay.mw)
	}
}

// relax offers the node at slot of cell c the path through the node
// being expanded (sc.gCur, sc.iCur, sc.curKey).
func (s *Session) relax(c *cell, slot int) {
	sc := &s.sc
	mi := c.base + int32(slot)
	si := &s.slotTab[slot]
	if sc.has(mi, flagOwned) {
		// The net's own nodes are seeds at cost 0 with no parent: no
		// offer can improve or re-parent one.
		return
	}
	nd := sc.gCur + s.price(si.base, si.cap, int(c.base)+int(si.occ)+c.kd)
	if !sc.has(mi, flagSeen) {
		sc.set(mi, flagSeen)
		h := s.costToGo(c, slot)
		if h < 0 {
			// No target reachable in time: prune. -Inf makes every later
			// offer fall through the comparisons below.
			sc.dist[mi] = math.Inf(-1)
			return
		}
		sc.hval[mi] = h
		sc.dist[mi] = nd
		sc.parent[mi] = sc.iCur
		sc.bq.push(heapItem{cost: nd + float64(h)/10, key: c.key + si.key, idx: mi})
		return
	}
	if nd < sc.dist[mi] {
		sc.dist[mi] = nd
		sc.parent[mi] = sc.iCur
		sc.stamp[mi] &^= flagClosed // reopen (ulp-scale improvement)
		sc.bq.push(heapItem{cost: nd + float64(sc.hval[mi])/10, key: c.key + si.key, idx: mi})
		return
	}
	if nd == sc.dist[mi] {
		// Deterministic, pop-order-independent parent tie-break: of the
		// predecessors offering the same cost, the one with the smaller
		// RealKey keeps the slot.
		if sc.curKey < s.keyAt(sc.parent[mi]) {
			sc.parent[mi] = sc.iCur
		}
	}
}
