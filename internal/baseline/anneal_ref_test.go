package baseline

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
)

// slotKey is the map key the SA occupancy had before it became a dense
// table: FU / mem-read / mem-write of one PE at one wrapped cycle.
type slotKey struct {
	kind    uint8 // 0 FU, 1 mem read, 2 mem write
	r, c, t int
}

func slotKeyOf(n *ir.Node, p place, ii int) slotKey {
	k := uint8(0)
	switch n.Kind {
	case ir.OpLoad:
		k = 1
	case ir.OpStore:
		k = 2
	}
	return slotKey{kind: k, r: p.R, c: p.C, t: ((p.T % ii) + ii) % ii}
}

// annealMapRef is anneal as it stood with the map-keyed occupancy, kept
// as the reference the dense table is held to: the same proposals from
// the same rng, the same costs, the same accept decisions. Cancellation
// and the deadline are left out; neither draws from the rng.
func annealMapRef(d *ir.DFG, cg arch.Fabric, ii, moves int, rng *rand.Rand) ([]place, bool, float64) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, false, 0
	}
	// On fabrics with restricted memory ports, loads and stores snap to
	// the nearest memory-capable PE after each random proposal. The snap
	// consumes no randomness and is a no-op on all-mem fabrics, so the
	// classic mapper's rng sequence (and hence its output) is unchanged.
	var memPEs [][2]int
	if cg.Mem != arch.MemAll {
		memPEs = cg.MemPEs()
	}
	snap := func(kind ir.OpKind, r, c int) (int, int) {
		if memPEs == nil || (kind != ir.OpLoad && kind != ir.OpStore) || cg.MemCapable(r, c) {
			return r, c
		}
		sr, sc, bd := r, c, int(^uint(0)>>1)
		for _, pe := range memPEs {
			if dd := absInt(pe[0]-r) + absInt(pe[1]-c); dd < bd {
				bd, sr, sc = dd, pe[0], pe[1]
			}
		}
		return sr, sc
	}
	// ASAP levels give the initial schedule and the move window.
	asap := make([]int, len(d.Nodes))
	for _, id := range order {
		for _, ei := range d.InEdges(id) {
			e := d.Edges[ei]
			if asap[e.From]+1 > asap[id] {
				asap[id] = asap[e.From] + 1
			}
		}
	}
	span := 0
	for _, l := range asap {
		if l > span {
			span = l
		}
	}
	window := span + 2*ii + 2

	pl := make([]place, len(d.Nodes))
	occ := map[slotKey]int{}
	for _, id := range order {
		n := d.Nodes[id]
		// Greedy: earliest feasible slot on the least-loaded PE near parents.
		bestR, bestC := rng.Intn(cg.Rows), rng.Intn(cg.Cols)
		if ins := d.InEdges(id); len(ins) > 0 {
			p := pl[d.Edges[ins[0]].From]
			bestR, bestC = p.R, p.C
		}
		bestR, bestC = snap(n.Kind, bestR, bestC)
		t := asap[id]
		p := place{T: t, R: bestR, C: bestC}
		for tries := 0; tries < 4*ii; tries++ {
			if occ[slotKeyOf(n, p, ii)] == 0 {
				break
			}
			p.T++
		}
		pl[id] = p
		occ[slotKeyOf(n, p, ii)]++
	}

	cost := func(id int) float64 {
		n := d.Nodes[id]
		c := 0.0
		p := pl[id]
		if k := slotKeyOf(n, p, ii); occ[k] > 1 {
			c += 1000 * float64(occ[k]-1)
		}
		for _, ei := range d.InEdges(id) {
			e := d.Edges[ei]
			pp := pl[e.From]
			dist := absInt(pp.R-p.R) + absInt(pp.C-p.C)
			need := dist
			if need == 0 {
				need = 1
			}
			dt := p.T - pp.T
			if dt < need {
				c += 1000 * float64(need-dt)
			} else {
				c += float64(dist) + 0.2*float64(dt-need)
			}
		}
		for _, ei := range d.OutEdges(id) {
			e := d.Edges[ei]
			cp := pl[e.To]
			dist := absInt(cp.R-p.R) + absInt(cp.C-p.C)
			need := dist
			if need == 0 {
				need = 1
			}
			dt := cp.T - p.T
			if dt < need {
				c += 1000 * float64(need-dt)
			} else {
				c += float64(dist) + 0.2*float64(dt-need)
			}
		}
		return c
	}

	// feasible reports whether the placement has zero hard violations —
	// the SA's early-exit condition (burning the full move budget after
	// feasibility would only polish wirelength).
	feasible := func() bool {
		for _, id := range order {
			n := d.Nodes[id]
			if occ[slotKeyOf(n, pl[id], ii)] > 1 {
				return false
			}
			p := pl[id]
			if (n.Kind == ir.OpLoad || n.Kind == ir.OpStore) && !cg.MemCapable(p.R, p.C) {
				return false
			}
			for _, ei := range d.InEdges(id) {
				e := d.Edges[ei]
				pp := pl[e.From]
				dist := absInt(pp.R-p.R) + absInt(pp.C-p.C)
				need := dist
				if need == 0 {
					need = 1
				}
				if p.T-pp.T < need {
					return false
				}
			}
		}
		return true
	}

	temp := 60.0
	decay := math.Pow(0.02/temp, 1/float64(moves+1))
	for mv := 0; mv < moves; mv++ {
		id := rng.Intn(len(d.Nodes))
		n := d.Nodes[id]
		old := pl[id]
		oldCost := cost(id)
		nt := asap[id] + rng.Intn(window-asap[id])
		np := place{T: nt, R: rng.Intn(cg.Rows), C: rng.Intn(cg.Cols)}
		np.R, np.C = snap(n.Kind, np.R, np.C)
		occ[slotKeyOf(n, old, ii)]--
		pl[id] = np
		occ[slotKeyOf(n, np, ii)]++
		newCost := cost(id)
		dc := newCost - oldCost
		if dc > 0 && rng.Float64() >= math.Exp(-dc/temp) {
			occ[slotKeyOf(n, np, ii)]--
			pl[id] = old
			occ[slotKeyOf(n, old, ii)]++
		}
		temp *= decay
	}
	if !feasible() {
		return pl, false, 0
	}
	total := 0.0
	for id := range d.Nodes {
		total += cost(id)
	}
	return pl, true, total
}

// TestAnnealDenseMatchesMap: the dense occupancy table changes how a
// slot is found, not what the SA does. On every II attempt the eight
// flat_backends conventional inputs make (three seeds), and on a
// boundary-memory fabric, where loads and stores snap to the nearest
// memory PE (three kernels, one seed), every node lands where the
// map-keyed reference puts it, with the same verdict and cost, and the
// rng the attempts share is left in the same state.
func TestAnnealDenseMatchesMap(t *testing.T) {
	memb := arch.DefaultFabric(4, 4)
	memb.Mem = arch.MemBoundary
	attempts := 0
	for _, c := range []struct {
		fab     arch.Fabric
		seeds   int64
		kernels []*kernel.Kernel
	}{{arch.DefaultFabric(4, 4), 3, kernel.Evaluation()}, {memb, 1, kernel.Evaluation()[:3]}} {
		for _, k := range c.kernels {
			d, err := k.BuildDFG(k.UniformBlock(2))
			if err != nil {
				t.Fatal(err)
			}
			moves := 1500*len(d.Nodes) + 2*len(d.Nodes)*len(d.Nodes)
			for seed := int64(1); seed <= c.seeds; seed++ {
				// The IIs this compile attempts, from its own place spans.
				var iis []int
				tr := diag.TracerFunc(func(s diag.Span) {
					if s.Stage == "place" {
						iis = append(iis, s.Attempt)
					}
				})
				if _, err := CompileRequest(context.Background(), k, c.fab, k.UniformBlock(2), Options{Seed: seed, Tracer: tr}); err != nil {
					t.Fatalf("%s on %s seed %d: %v", k.Name, c.fab, seed, err)
				}
				rngD := rand.New(rand.NewSource(seed + int64(len(d.Nodes))))
				rngM := rand.New(rand.NewSource(seed + int64(len(d.Nodes))))
				for _, ii := range iis {
					attempts++
					plD, okD, costD := anneal(context.Background(), d, c.fab, ii, moves, rngD)
					plM, okM, costM := annealMapRef(d, c.fab, ii, moves, rngM)
					if okD != okM || costD != costM || !reflect.DeepEqual(plD, plM) {
						t.Fatalf("%s on %s seed %d II %d: dense (%v, %v) and map (%v, %v) occupancy disagree\ndense %v\nmap   %v",
							k.Name, c.fab, seed, ii, okD, costD, okM, costM, plD, plM)
					}
				}
				if rngD.Int63() != rngM.Int63() {
					t.Fatalf("%s on %s seed %d: rng sequences diverged", k.Name, c.fab, seed)
				}
			}
		}
	}
	t.Logf("%d II attempts compared", attempts)
}
