package exact

import "himap/internal/mrrg"

const (
	// screenMaxPaths bounds the shortest link paths enumerated for one
	// edge; an edge with more is left out of the test (one constraint
	// fewer — the test only gets weaker).
	screenMaxPaths = 64
	// screenVisitCap bounds the path choices one leaf may try; past it
	// the verdict is "unknown" and the leaf goes to the router.
	screenVisitCap = 1024
)

// leafScreen is the link-exclusivity test a complete placement passes
// before the detailed router sees it (package comment, "Soundness"): one
// shortest link path per zero-slack cross-PE edge, no output-register
// occupancy key carrying more distinct nets than its capacity. It is
// scratch owned by one searcher and is left empty between leaves.
type leafScreen struct {
	g   *mrrg.Graph
	cap int // g.Capacity(ClassOut)

	edges []screenEdge
	keys  []int32 // path arena: edge e's paths are keys[e.lo:e.hi], e.hop keys each
	cur   []int32 // the path prefix under enumeration

	// own/refs hold, per dense occupancy key, up to cap (net+1, sinks
	// through it) pairs; own == 0 marks a free pair. Sized at the first
	// leaf — most II attempts are refuted before they reach one.
	own, refs []int32
	visits    int
}

type screenEdge struct {
	net, hop, lo, hi int
}

// refutes reports whether the searcher's complete placement provably has
// no legal routing. false means "not refuted", never "routable".
func (sc *leafScreen) refutes(s *searcher) bool {
	if sc.own == nil {
		sc.own = make([]int32, sc.g.NumDenseKeys()*sc.cap)
		sc.refs = make([]int32, len(sc.own))
	}
	sc.edges, sc.keys = sc.edges[:0], sc.keys[:0]
	for _, e := range s.d.Edges {
		pu, pv := s.ape[e.From], s.ape[e.To]
		h := s.hop(pu, pv)
		if h == 0 || s.at[e.To]-s.at[e.From] != h {
			continue
		}
		lo := len(sc.keys)
		sc.cur = sc.cur[:0]
		if !sc.walk(s, pu, pv, s.at[e.From], lo) {
			sc.keys = sc.keys[:lo]
			continue
		}
		sc.edges = append(sc.edges, screenEdge{net: e.From, hop: h, lo: lo, hi: len(sc.keys)})
	}
	// Fewest paths first (stable): forced edges claim their keys before
	// the edges with a choice are tried against them.
	for a := 1; a < len(sc.edges); a++ {
		e := sc.edges[a]
		b := a - 1
		for b >= 0 && (sc.edges[b].hi-sc.edges[b].lo)/sc.edges[b].hop > (e.hi-e.lo)/e.hop {
			sc.edges[b+1] = sc.edges[b]
			b--
		}
		sc.edges[b+1] = e
	}
	sc.visits = 0
	return !sc.solve(0)
}

// walk appends to the arena every shortest link path from PE p to PE pv
// whose first link is crossed in cycle t: the occupancy keys of the
// output registers it holds, one per cycle. It reports false once the
// edge has more than screenMaxPaths paths.
func (sc *leafScreen) walk(s *searcher, p, pv, t, lo int) bool {
	if p == pv {
		sc.keys = append(sc.keys, sc.cur...)
		return (len(sc.keys)-lo)/len(sc.cur) <= screenMaxPaths
	}
	nd, links := sc.g.NumDirs(), sc.g.LinkTable()
	for d := 0; d < nd; d++ {
		q := int(links[p*nd+d])
		if q < 0 || s.hop(q, pv) != s.hop(p, pv)-1 {
			continue
		}
		out := mrrg.Node{T: t, R: p / s.cols, C: p % s.cols, Class: mrrg.ClassOut, Idx: uint8(d)}
		sc.cur = append(sc.cur, int32(sc.g.DenseKey(out)))
		ok := sc.walk(s, q, pv, t+1, lo)
		sc.cur = sc.cur[:len(sc.cur)-1]
		if !ok {
			return false
		}
	}
	return true
}

// solve chooses a path for edges[k:] by backtracking and reports whether
// a conflict-free choice exists; running out of visits counts as one.
// Every claim is released on the way out, whatever the answer.
func (sc *leafScreen) solve(k int) bool {
	if k == len(sc.edges) {
		return true
	}
	e := sc.edges[k]
	for lo := e.lo; lo < e.hi; lo += e.hop {
		if sc.visits++; sc.visits > screenVisitCap {
			return true
		}
		path := sc.keys[lo : lo+e.hop]
		if !sc.claim(int32(e.net)+1, path) {
			continue
		}
		ok := sc.solve(k + 1)
		sc.release(int32(e.net)+1, path)
		if ok {
			return true
		}
	}
	return false
}

// claim puts net on every key of path, or on none. Sinks of one net
// share a key (fanout taps the wire); distinct nets need a pair each.
func (sc *leafScreen) claim(net int32, path []int32) bool {
	for i, key := range path {
		pairs := sc.own[int(key)*sc.cap : (int(key)+1)*sc.cap]
		at := -1
		for j, o := range pairs {
			if o == net {
				at = j
				break
			}
			if o == 0 && at < 0 {
				at = j
			}
		}
		if at < 0 {
			sc.release(net, path[:i])
			return false
		}
		pairs[at] = net
		sc.refs[int(key)*sc.cap+at]++
	}
	return true
}

func (sc *leafScreen) release(net int32, path []int32) {
	for _, key := range path {
		for j := int(key) * sc.cap; ; j++ {
			if sc.own[j] == net {
				if sc.refs[j]--; sc.refs[j] == 0 {
					sc.own[j] = 0
				}
				break
			}
		}
	}
}
