package exact

import (
	"context"
	"time"

	"himap/internal/arch"
	"himap/internal/ir"
	"himap/internal/mrrg"
	"himap/internal/route"
)

type searchStatus int

const (
	statusRouted   searchStatus = iota // found and detail-routed a mapping
	statusRefuted                      // search space exhausted, no complete placement: II infeasible (within horizon)
	statusUnproven                     // placements exist but none routed (or leaf cap hit): no verdict
	statusBudget                       // time budget expired
	statusCanceled                     // context canceled
	statusLeaf                         // descend only: every node assigned, the placement awaits its verdict
)

// bitset is a fixed-width set of decision depths.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// max returns the highest member, or -1.
func (b bitset) max() int {
	for i := len(b) - 1; i >= 0; i-- {
		if w := b[i]; w != 0 {
			msb := 63
			for w&(1<<uint(msb)) == 0 {
				msb--
			}
			return i<<6 + msb
		}
	}
	return -1
}

// orWithout merges o \ {skip} into b.
func (b bitset) orWithout(o bitset, skip int) {
	for i := range b {
		b[i] |= o[i]
	}
	b[skip>>6] &^= 1 << uint(skip&63)
}

const (
	kindFU uint8 = iota
	kindMRD
	kindMWR
)

// searcher holds the branch-and-bound state for one (DFG, fabric, II)
// attempt. Decision variables are DFG nodes in topological order; values
// are (real cycle, PE) slots enumerated cycle-ascending with PEs ordered
// by hop distance from the first predecessor's placement.
type searcher struct {
	d    *ir.DFG
	fab  arch.Fabric
	ii   int
	opts Options

	order   []int // decision order (topological)
	depthOf []int // node id → depth
	asap    []int // earliest real cycle per node
	hi      []int // latest real cycle per node (horizon − tail)
	horizon int
	pes     int
	cols    int
	memOK   []bool  // per PE index
	isMem   []bool  // per node: load or store
	kindOf  []uint8 // per node slot kind

	capFU, capMRD, capMWR, egCap, capRFR, capRFW int

	hopTab []int // pes×pes: arch.Fabric.HopDist between PE indices

	at  []int // node id → assigned real cycle, −1 when unassigned
	ape []int // node id → assigned PE index
	// slotCnt counts the assigned occupants of every (kind, wrapped
	// cycle, PE) slot, indexed (kind·II+τ)·pes+pe and kept in step by
	// assign/unassign, so check reads exclusivity without a scan.
	slotCnt []int32

	cand  []int    // per depth: next candidate index
	peOrd [][]int  // per depth: frozen PE enumeration order
	confl []bitset // per depth: accumulated conflict set

	nogood   map[uint64]struct{}
	newPin   []int // scratch: preds newly pinned by the current candidate
	explored int64
	leaves   int // complete placements that did not route (screened included)
	screened int // of those, refuted by the leaf screen without a router call
	sawLeaf  bool
	steps    int
	depth    int // where descend resumes: 0, or failLeaf's restart depth

	screen leafScreen
	ses    *route.Session // the compile's, re-targeted to this II's graph
}

const maxNogoods = 1 << 15

// newSearcher prepares the search at one II. ses is the compile's routing
// session: it is re-targeted to the II's MRRG, which every leaf of the
// II is routed on.
func newSearcher(d *ir.DFG, fab arch.Fabric, ii int, opts Options, ses *route.Session) *searcher {
	n := len(d.Nodes)
	s := &searcher{
		d: d, fab: fab, ii: ii, opts: opts,
		pes: fab.NumPEs(), cols: fab.Cols,
		nogood: make(map[uint64]struct{}),
	}
	s.order, _ = d.TopoOrder()
	s.depthOf = make([]int, n)
	for i, id := range s.order {
		s.depthOf[id] = i
	}
	s.memOK = make([]bool, s.pes)
	s.hopTab = make([]int, s.pes*s.pes)
	for p := 0; p < s.pes; p++ {
		s.memOK[p] = fab.MemCapable(p/s.cols, p%s.cols)
		for q := 0; q < s.pes; q++ {
			s.hopTab[p*s.pes+q] = fab.HopDist(p/s.cols, p%s.cols, q/s.cols, q%s.cols)
		}
	}
	s.isMem = make([]bool, n)
	s.kindOf = make([]uint8, n)
	for id, nd := range d.Nodes {
		switch nd.Kind {
		case ir.OpLoad:
			s.isMem[id], s.kindOf[id] = true, kindMRD
		case ir.OpStore:
			s.isMem[id], s.kindOf[id] = true, kindMWR
		default:
			s.kindOf[id] = kindFU
		}
	}

	// ASAP / latest-cycle domains from the placement-independent minimum
	// edge latencies: 1 for an operand edge (same-PE forwarding needs a
	// register turnaround), 0 for a store edge (the write port is
	// reachable in the producer's own cycle).
	s.asap = make([]int, n)
	for _, id := range s.order {
		for _, ei := range d.InEdges(id) {
			e := d.Edges[ei]
			if lo := s.asap[e.From] + minNeed(d.Nodes[e.From].Kind, d.Nodes[id].Kind); lo > s.asap[id] {
				s.asap[id] = lo
			}
		}
	}
	span := 0
	for _, l := range s.asap {
		if l > span {
			span = l
		}
	}
	s.horizon = opts.Horizon
	if s.horizon == 0 {
		s.horizon = 2*ii + 2
	}
	maxT := span + s.horizon
	tail := make([]int, n)
	s.hi = make([]int, n)
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		for _, ei := range d.OutEdges(id) {
			e := d.Edges[ei]
			if tl := minNeed(d.Nodes[id].Kind, d.Nodes[e.To].Kind) + tail[e.To]; tl > tail[id] {
				tail[id] = tl
			}
		}
		s.hi[id] = maxT - tail[id]
	}

	// Capacities are the ones the PathFinder router negotiates against,
	// so relaxation and detailed routing agree on what the fabric
	// provides.
	g := mrrg.New(fab, ii)
	s.capFU = g.Capacity(mrrg.ClassFU)
	s.capMRD = g.Capacity(mrrg.ClassMemRead)
	s.capMWR = g.Capacity(mrrg.ClassMemWrite)
	s.egCap = g.Capacity(mrrg.ClassOut)
	if !g.SharedOut() {
		s.egCap *= g.NumDirs()
	}
	s.capRFR = g.Capacity(mrrg.ClassRFRead)
	s.capRFW = g.Capacity(mrrg.ClassRFWrite)
	s.screen = leafScreen{g: g, cap: g.Capacity(mrrg.ClassOut)}
	s.ses = ses.Reset(g)

	s.slotCnt = make([]int32, 3*ii*s.pes)
	s.at = make([]int, n)
	s.ape = make([]int, n)
	for id := range s.at {
		s.at[id], s.ape[id] = -1, -1
	}
	s.cand = make([]int, n)
	s.peOrd = make([][]int, n)
	s.confl = make([]bitset, n)
	for i := range s.confl {
		s.confl[i] = newBitset(n)
	}
	if n > 0 {
		s.freezePEOrder(0, s.order[0])
	}
	return s
}

// minNeed is the placement-independent lower bound on an edge's latency.
// A store consumer can be written in the producer's arrival cycle, and a
// load producer on the consumer's own PE is readable directly from the
// memory read port in its own cycle, so both bound at 0; every other
// operand edge needs at least a register turnaround.
func minNeed(from, to ir.OpKind) int {
	if to == ir.OpStore || from == ir.OpLoad {
		return 0
	}
	return 1
}

func (s *searcher) wrap(t int) int { return ((t % s.ii) + s.ii) % s.ii }

func (s *searcher) hop(peA, peB int) int { return s.hopTab[peA*s.pes+peB] }

func (s *searcher) slotIdx(kind uint8, t, pe int) int {
	return (int(kind)*s.ii+s.wrap(t))*s.pes + pe
}

func (s *searcher) assign(v, t, pe int) {
	s.at[v], s.ape[v] = t, pe
	s.slotCnt[s.slotIdx(s.kindOf[v], t, pe)]++
}

// unassign clears node id's slot; a no-op on an unassigned node, so the
// reset loops need not know which depths a backjump already cleared.
func (s *searcher) unassign(id int) {
	if s.at[id] < 0 {
		return
	}
	s.slotCnt[s.slotIdx(s.kindOf[id], s.at[id], s.ape[id])]--
	s.at[id], s.ape[id] = -1, -1
}

// need is the exact minimum latency of edge u→v once both endpoints'
// PEs are known: the hop distance, except that a same-PE store write or
// a same-PE read of a load's memory port happens in-cycle (0), and every
// other same-PE operand edge needs a register turnaround (1).
func (s *searcher) need(fromKind, toKind ir.OpKind, peU, peV int) int {
	h := s.hop(peU, peV)
	if h > 0 || toKind == ir.OpStore || fromKind == ir.OpLoad {
		return h
	}
	return 1
}

func (s *searcher) slotCap(kind uint8) int {
	switch kind {
	case kindMRD:
		return s.capMRD
	case kindMWR:
		return s.capMWR
	default:
		return s.capFU
	}
}

// pinnedBy reports the depth of an assigned consumer that pins producer
// w's departure to its own firing cycle (cross-PE, zero slack), or −1.
func (s *searcher) pinnedBy(w int) int {
	for _, ei := range s.d.OutEdges(w) {
		x := s.d.Edges[ei].To
		if s.at[x] < 0 {
			continue
		}
		if h := s.hop(s.ape[w], s.ape[x]); h > 0 && s.at[x]-s.at[w] == h {
			return s.depthOf[x]
		}
	}
	return -1
}

// check tests candidate slot (t, pe) for the node at depth i against the
// three propagators. On rejection it merges the responsible decision
// depths into confl[i] and returns false.
func (s *searcher) check(i, v, t, pe int) bool {
	d := s.d
	// Timing against every placed predecessor.
	for _, ei := range d.InEdges(v) {
		u := d.Edges[ei].From
		if t-s.at[u] < s.need(d.Nodes[u].Kind, d.Nodes[v].Kind, s.ape[u], pe) {
			s.confl[i].set(s.depthOf[u])
			return false
		}
	}
	// Slot exclusivity: kind-specific port of (pe, t mod II). Only the
	// rejection walks the placed nodes, to name the occupants.
	kind, tau := s.kindOf[v], s.wrap(t)
	if int(s.slotCnt[s.slotIdx(kind, t, pe)]) >= s.slotCap(kind) {
		for _, id := range s.order[:i] {
			if s.at[id] >= 0 && s.kindOf[id] == kind && s.ape[id] == pe && s.wrap(s.at[id]) == tau {
				s.confl[i].set(s.depthOf[id])
			}
		}
		return false
	}
	// Aggregate egress: placing v may pin predecessors' departures.
	s.newPin = s.newPin[:0]
	for _, ei := range d.InEdges(v) {
		u := d.Edges[ei].From
		if h := s.hop(s.ape[u], pe); h > 0 && t-s.at[u] == h && s.pinnedBy(u) < 0 {
			s.newPin = append(s.newPin, u)
		}
	}
	for k, u := range s.newPin {
		peU, tauU := s.ape[u], s.wrap(s.at[u])
		cnt := 0
		for _, u2 := range s.newPin[:k+1] {
			if s.ape[u2] == peU && s.wrap(s.at[u2]) == tauU {
				cnt++
			}
		}
		for _, id := range s.order[:i] {
			if s.at[id] < 0 || s.ape[id] != peU || s.wrap(s.at[id]) != tauU {
				continue
			}
			if alreadyNew(s.newPin, id) {
				continue
			}
			if s.pinnedBy(id) >= 0 {
				cnt++
			}
		}
		if cnt > s.egCap {
			s.confl[i].set(s.depthOf[u])
			for _, u2 := range s.newPin[:k] {
				if s.ape[u2] == peU && s.wrap(s.at[u2]) == tauU {
					s.confl[i].set(s.depthOf[u2])
				}
			}
			for _, id := range s.order[:i] {
				if s.at[id] < 0 || s.ape[id] != peU || s.wrap(s.at[id]) != tauU || alreadyNew(s.newPin, id) {
					continue
				}
				if px := s.pinnedBy(id); px >= 0 {
					s.confl[i].set(s.depthOf[id])
					s.confl[i].set(px)
				}
			}
			return false
		}
	}
	return s.checkRF(i, v, t, pe)
}

// forcedRF reports whether the assigned edge u→x must pass through u's
// PE-local register file: same PE with unit slack leaves no cycle for a
// neighbor detour and no direct port read.
func (s *searcher) forcedRF(u, x int) bool {
	return s.ape[u] == s.ape[x] && s.at[x]-s.at[u] == 1
}

// forcedConsumerOf returns the depth of an assigned consumer that forces
// producer w's value through the RF, or −1.
func (s *searcher) forcedConsumerOf(w int) int {
	for _, ei := range s.d.OutEdges(w) {
		x := s.d.Edges[ei].To
		if s.at[x] >= 0 && s.forcedRF(w, x) {
			return s.depthOf[x]
		}
	}
	return -1
}

// checkRF tests the forced register-file port pressure of placing v at
// (t, pe): every newly forced edge pins one RF write in the producer's
// wrapped cycle and one RF read in the consumer's, against the fabric's
// RFWriteCap / RFReadCap port counts.
func (s *searcher) checkRF(i, v, t, pe int) bool {
	d := s.d
	// Distinct predecessors that become forced-RF writers/reads.
	s.newPin = s.newPin[:0]
	for _, ei := range d.InEdges(v) {
		u := d.Edges[ei].From
		if s.ape[u] == pe && t-s.at[u] == 1 && !alreadyNew(s.newPin, u) {
			s.newPin = append(s.newPin, u)
		}
	}
	if len(s.newPin) == 0 {
		return true
	}
	// Write ports: one per producer with ≥1 forced consumer, per
	// (producer PE, producer wrapped cycle). All new writers share pe.
	for k, u := range s.newPin {
		if s.forcedConsumerOf(u) >= 0 {
			continue // already counted as a writer
		}
		tauU := s.wrap(s.at[u])
		cnt := 1
		for _, u2 := range s.newPin[:k] {
			if s.forcedConsumerOf(u2) < 0 && s.wrap(s.at[u2]) == tauU {
				cnt++
			}
		}
		for _, id := range s.order[:i] {
			if s.at[id] < 0 || s.ape[id] != pe || s.wrap(s.at[id]) != tauU || alreadyNew(s.newPin, id) {
				continue
			}
			if s.forcedConsumerOf(id) >= 0 {
				cnt++
			}
		}
		if cnt > s.capRFW {
			s.confl[i].set(s.depthOf[u])
			for _, id := range s.order[:i] {
				if s.at[id] < 0 || s.ape[id] != pe || s.wrap(s.at[id]) != tauU {
					continue
				}
				if fx := s.forcedConsumerOf(id); fx >= 0 {
					s.confl[i].set(s.depthOf[id])
					s.confl[i].set(fx)
				}
			}
			return false
		}
	}
	// Read ports: one per distinct forced producer, per (consumer PE,
	// consumer wrapped cycle). v's new reads all land at (pe, t mod II).
	tau := s.wrap(t)
	cnt := len(s.newPin)
	for _, id := range s.order[:i] {
		if s.at[id] < 0 || s.ape[id] != pe || s.wrap(s.at[id]) != tau || id == v {
			continue
		}
		cnt += s.forcedReadUnits(id)
	}
	if cnt > s.capRFR {
		for _, u := range s.newPin {
			s.confl[i].set(s.depthOf[u])
		}
		for _, id := range s.order[:i] {
			if s.at[id] < 0 || s.ape[id] != pe || s.wrap(s.at[id]) != tau {
				continue
			}
			if s.forcedReadUnits(id) > 0 {
				s.confl[i].set(s.depthOf[id])
				for _, ei := range s.d.InEdges(id) {
					if u := s.d.Edges[ei].From; s.at[u] >= 0 && s.forcedRF(u, id) {
						s.confl[i].set(s.depthOf[u])
					}
				}
			}
		}
		return false
	}
	return true
}

// forcedReadUnits counts the distinct producers assigned consumer x must
// read from its RF in its firing cycle.
func (s *searcher) forcedReadUnits(x int) int {
	cnt := 0
	ins := s.d.InEdges(x)
	for a, ei := range ins {
		u := s.d.Edges[ei].From
		if s.at[u] < 0 || !s.forcedRF(u, x) {
			continue
		}
		dup := false
		for _, ej := range ins[:a] {
			if s.d.Edges[ej].From == u {
				dup = true
				break
			}
		}
		if !dup {
			cnt++
		}
	}
	return cnt
}

func alreadyNew(pins []int, id int) bool {
	for _, p := range pins {
		if p == id {
			return true
		}
	}
	return false
}

// freezePEOrder fixes the PE enumeration for a freshly entered depth:
// hop distance from the first placed predecessor ascending (ties by PE
// index), so leaves cluster producers and consumers and route easily.
func (s *searcher) freezePEOrder(i, v int) {
	ord := s.peOrd[i]
	if ord == nil {
		ord = make([]int, s.pes)
		s.peOrd[i] = ord
	}
	anchor := -1
	for _, ei := range s.d.InEdges(v) {
		if u := s.d.Edges[ei].From; s.at[u] >= 0 {
			anchor = s.ape[u]
			break
		}
	}
	for p := range ord {
		ord[p] = p
	}
	if anchor < 0 {
		return
	}
	// Insertion sort by (hop-from-anchor, index): pes is small.
	for a := 1; a < len(ord); a++ {
		p := ord[a]
		hp := s.hop(anchor, p)
		b := a - 1
		for b >= 0 && s.hop(anchor, ord[b]) > hp {
			ord[b+1] = ord[b]
			b--
		}
		ord[b+1] = p
	}
}

// prefixHash folds the first i assignments into an FNV-1a key for the
// no-good table.
func (s *searcher) prefixHash(i int) uint64 {
	h := uint64(14695981039346656037)
	step := func(x int) {
		h ^= uint64(uint32(x))
		h *= 1099511628211
	}
	step(i)
	for _, id := range s.order[:i] {
		step(s.at[id])
		step(s.ape[id])
	}
	return h
}

func (s *searcher) routeLeaf(ctx context.Context) (*arch.Config, error) {
	pl := make([]route.Placement, len(s.d.Nodes))
	for id := range pl {
		pl[id] = route.Placement{T: s.at[id], R: s.ape[id] / s.cols, C: s.ape[id] % s.cols}
	}
	return route.RouteDFG(ctx, s.ses, s.d, pl, s.opts.RouteRounds)
}

// run drives the conflict-directed backjumping search to one of the five
// terminal statuses. Exhaustion without ever completing a placement is a
// sound refutation of this II within the horizon; exhaustion after
// unrouted complete placements is not (the detailed router is not
// complete), so it reports statusUnproven instead.
func (s *searcher) run(ctx context.Context, deadline time.Time) (searchStatus, *arch.Config) {
	for {
		if st := s.descend(ctx, deadline); st != statusLeaf {
			return st, nil
		}
		// A leaf the screen refutes has no legal routing, so it fails
		// exactly as a routed one would, without the router being asked.
		if s.screen.refutes(s) {
			s.screened++
		} else if cfg, err := s.routeLeaf(ctx); err == nil {
			return statusRouted, cfg
		}
		if !s.failLeaf() {
			return statusUnproven, nil
		}
	}
}

// descend searches on from depth s.depth until every node is assigned
// (statusLeaf: the caller judges the placement and calls failLeaf to go
// on) or the search ends.
func (s *searcher) descend(ctx context.Context, deadline time.Time) searchStatus {
	n := len(s.order)
	if n == 0 {
		return statusRefuted
	}
	i := s.depth
	for {
		s.steps++
		if s.steps&255 == 0 {
			if ctx.Err() != nil {
				return statusCanceled
			}
			if !deadline.IsZero() && time.Now().After(deadline) { //lint:ignore determinism opt-in TimeBudget deadline; documented nondeterminism when set
				return statusBudget
			}
		}
		v := s.order[i]
		lo, hiT := s.asap[v], s.hi[v]
		domain := (hiT - lo + 1) * s.pes
		if domain < 0 {
			domain = 0 // horizon too tight for this node: structural wipeout
		}
		// A previously recorded no-good prefix wipes the subtree without
		// re-search; the chronological conflict set keeps CBJ sound.
		if s.cand[i] == 0 && i > 0 {
			if _, bad := s.nogood[s.prefixHash(i)]; bad {
				//lint:ignore ctxflow conflict-set fill bounded by depth i <= node count; the descent loop polls every 256 steps
				for dd := 0; dd < i; dd++ {
					s.confl[i].set(dd)
				}
				s.cand[i] = domain
			}
		}
		assigned := false
		//lint:ignore ctxflow candidate scan bounded by domain = window*PEs; the descent loop polls every 256 steps
		for s.cand[i] < domain {
			idx := s.cand[i]
			s.cand[i]++
			t := lo + idx/s.pes
			pe := s.peOrd[i][idx%s.pes]
			if s.isMem[v] && !s.memOK[pe] {
				continue
			}
			if s.check(i, v, t, pe) {
				s.assign(v, t, pe)
				s.explored++
				assigned = true
				break
			}
		}
		if assigned {
			i++
			if i == n {
				return statusLeaf
			}
			s.freezePEOrder(i, s.order[i])
			continue
		}
		// Wipeout at depth i.
		if len(s.nogood) < maxNogoods {
			s.nogood[s.prefixHash(i)] = struct{}{}
		}
		if s.confl[i].empty() {
			if s.sawLeaf {
				return statusUnproven
			}
			return statusRefuted
		}
		j := s.confl[i].max()
		s.confl[j].orWithout(s.confl[i], j)
		//lint:ignore ctxflow backjump reset bounded by depth i <= node count; the descent loop polls every 256 steps
		for k := j + 1; k <= i; k++ {
			s.unassign(s.order[k])
			s.cand[k] = 0
			s.confl[k].clear()
		}
		s.unassign(s.order[j])
		i = j
	}
}

// failLeaf records that the complete placement descend stopped on did
// not route and rewinds for the next descend; false once the leaf cap is
// spent. The router is deterministic, so this full assignment can never
// succeed. Each failed leaf restarts progressively deeper (the f-th
// failure re-decides the last f variables) so successive leaves diverge
// structurally instead of permuting the final op. Refutation soundness is
// moot here — a leaf exists, so this II can only end statusUnproven — and
// the chronological conflict set keeps CBJ consistent.
func (s *searcher) failLeaf() bool {
	s.leaves++
	s.sawLeaf = true
	if s.leaves >= s.opts.MaxRoutedLeaves {
		return false
	}
	n := len(s.order)
	j := n - 1 - s.leaves
	if j < 0 {
		j = 0
	}
	for k := j + 1; k < n; k++ {
		s.unassign(s.order[k])
		s.cand[k] = 0
		s.confl[k].clear()
	}
	s.unassign(s.order[j])
	for dd := 0; dd < j; dd++ {
		s.confl[j].set(dd)
	}
	s.depth = j
	return true
}
