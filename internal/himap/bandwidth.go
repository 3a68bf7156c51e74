package himap

import (
	"math/bits"
	"sort"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
)

// Bandwidth feasibility pre-check (step 3 front): before any congestion
// negotiation, count the link departures the placed schedule *forces*
// against the fabric's declared bandwidth and fail with a typed
// diag.ErrBandwidthInfeasible when demand provably exceeds capacity.
//
// The argument: consider a placed producer (FU or memory-read slot) at
// (t_s, p_s) feeding a placed compute consumer at (t_c, p_c) with hop
// distance h = HopDist(p_s, p_c) ≥ 1. Every delivery path crosses h
// links, each advancing exactly one cycle, and the only legal operand
// endpoints are a neighbor output register at t_c − 1 (direct operand),
// or the consumer's RF read at t_c — which needs arrival by t_c − 2 and
// so is strictly tighter. Delaying departure costs at least one cycle
// (an RF write/read detour at the source). Hence when t_c − t_s == h
// the value must enter an output register of the source PE at exactly
// cycle t_s, in a direction whose neighbor is h−1 hops from the
// consumer. Each such dependence yields a *forced departure* with a
// direction mask; a net (one producer) satisfies its forced sinks by
// choosing one direction per sink, and distinct chosen directions are
// distinct same-cycle drives. The minimum number of drives a net needs
// is the minimum direction cover of its masks (exact, by subset
// enumeration — a greedy cover could overcount and would be unsound).
//
// Occupancy wraps modulo II_B and replicas appear as separate DFG
// instances, so summing forced drives per (wrapped PE, wrapped cycle)
// lower-bounds what any routing must charge:
//
//   - shared-bus fabrics provide one egress drive per PE per cycle, so
//     a total cover above 1 is infeasible;
//   - otherwise each direction provides LinkCapacity lanes, so more
//     singleton-forced nets on one direction than lanes is infeasible.
//
// Everything skipped (stores, relay pins, slack deliveries) only ever
// under-counts demand, so a reported infeasibility is a proof, not a
// heuristic.

// bwEdge is one placed producer→consumer dependence the demand counter
// inspects; net groups the edges of one producer instance (its drives
// in one direction are shared).
type bwEdge struct {
	net      int32
	src, dst mrrg.Node
}

// bwDemand is one forced departure: at key (wrapped PE × II + wrapped
// cycle), net must drive some direction of mask.
type bwDemand struct {
	key  int64
	net  int32
	mask uint16
}

// checkBandwidth runs the pre-check over the full placed DFG. Unit-
// bandwidth fabrics skip it entirely, so legacy failure classes are
// byte-identical to the pre-seam pipeline.
func (l *layout) checkBandwidth() error {
	if l.cg.Bandwidth == arch.BWUnit {
		return nil
	}
	d := l.g.DFG
	var edges []bwEdge
	for _, n := range d.Nodes {
		if !n.Kind.IsCompute() && n.Kind != ir.OpLoad {
			continue
		}
		src, ok := l.nodeAbs(n.ID)
		if !ok {
			continue
		}
		for _, ei := range d.OutEdges(n.ID) {
			to := d.Nodes[d.Edges[ei].To]
			if !to.Kind.IsCompute() {
				continue
			}
			dst, ok := l.nodeAbs(to.ID)
			if !ok {
				continue
			}
			edges = append(edges, bwEdge{net: int32(n.ID), src: src, dst: dst})
		}
	}
	return checkEdgeBandwidth(l.cg, l.iib, edges)
}

// checkEdgeBandwidth is the fabric-level core of the pre-check,
// factored out of the layout so crafted schedules can exercise it
// directly in tests.
func checkEdgeBandwidth(f arch.Fabric, ii int, edges []bwEdge) error {
	nd := f.NumLinkDirs()
	var dem []bwDemand
	for _, e := range edges {
		sr, sc := f.WrapCoord(e.src.R, e.src.C)
		dr, dc := f.WrapCoord(e.dst.R, e.dst.C)
		h := f.HopDist(sr, sc, dr, dc)
		if h < 1 || e.dst.T-e.src.T != h {
			continue // slack (or a latency failure routing will report)
		}
		var mask uint16
		for d := 0; d < nd; d++ {
			nr, nc, ok := f.LinkNeighbor(sr, sc, arch.Dir(d))
			if ok && f.HopDist(nr, nc, dr, dc) == h-1 {
				mask |= 1 << uint(d)
			}
		}
		if mask == 0 {
			continue
		}
		dem = append(dem, bwDemand{
			key:  int64(sr*f.Cols+sc)*int64(ii) + int64(wrapMod(e.src.T, ii)),
			net:  e.net,
			mask: mask,
		})
	}
	sort.Slice(dem, func(i, j int) bool {
		if dem[i].key != dem[j].key {
			return dem[i].key < dem[j].key
		}
		if dem[i].net != dem[j].net {
			return dem[i].net < dem[j].net
		}
		return dem[i].mask < dem[j].mask
	})
	lanes := f.LinkCapacity()
	bus := f.SharedOutBus()
	var masks []uint16
	for i := 0; i < len(dem); {
		j := i
		for j < len(dem) && dem[j].key == dem[i].key {
			j++
		}
		group := dem[i:j]
		pe := int(dem[i].key / int64(ii))
		tau := int(dem[i].key % int64(ii))
		if bus {
			total := 0
			for a := 0; a < len(group); {
				b := a
				for b < len(group) && group[b].net == group[a].net {
					b++
				}
				masks = masks[:0]
				for _, g := range group[a:b] {
					masks = append(masks, g.mask)
				}
				total += minDirCover(masks, nd)
				a = b
			}
			if total > 1 {
				return diag.Failf(diag.ErrBandwidthInfeasible,
					"himap: PE(%d,%d) must drive %d distinct link departures at cycle %d (mod %d), but the shared bus of the %s fabric provides 1 per cycle",
					pe/f.Cols, pe%f.Cols, total, tau, ii, f)
			}
		} else {
			var cnt [16]int
			var last [16]int32
			for k := range last {
				last[k] = -1
			}
			for _, g := range group {
				if bits.OnesCount16(g.mask) != 1 {
					continue // a direction choice remains: not forced onto one link
				}
				d := bits.TrailingZeros16(uint16(g.mask))
				if last[d] == g.net {
					continue
				}
				last[d] = g.net
				cnt[d]++
				if cnt[d] > lanes {
					return diag.Failf(diag.ErrBandwidthInfeasible,
						"himap: link %s out of PE(%d,%d) must carry %d distinct values at cycle %d (mod %d), but the %s fabric provides %d lanes",
						arch.Dir(d), pe/f.Cols, pe%f.Cols, cnt[d], tau, ii, f, lanes)
				}
			}
		}
		i = j
	}
	return nil
}

// minDirCover returns the exact minimum number of directions needed so
// every mask contains a chosen direction — the fewest same-cycle drives
// that satisfy one net's forced sinks. nd ≤ 8, so exhaustive subset
// enumeration (≤ 256 candidates) is exact and cheap; a greedy cover
// could return an overestimate, which would make the pre-check unsound.
func minDirCover(masks []uint16, nd int) int {
	if len(masks) == 0 {
		return 0
	}
	best := nd
	all := 1 << uint(nd)
	for s := 1; s < all; s++ {
		pc := bits.OnesCount16(uint16(s))
		if pc >= best {
			continue
		}
		covers := true
		for _, m := range masks {
			if int(m)&s == 0 {
				covers = false
				break
			}
		}
		if covers {
			best = pc
		}
	}
	return best
}

// wrapMod folds t into [0, m).
func wrapMod(t, m int) int { return ((t % m) + m) % m }
