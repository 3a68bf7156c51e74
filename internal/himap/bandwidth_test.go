package himap

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/mrrg"
)

func TestMinDirCover(t *testing.T) {
	cases := []struct {
		name  string
		masks []uint16
		nd    int
		want  int
	}{
		{"no demands", nil, 4, 0},
		{"single sink", []uint16{0b0001}, 4, 1},
		{"shared direction", []uint16{0b0011, 0b0101}, 4, 1},
		{"disjoint singletons", []uint16{0b0001, 0b0010}, 4, 2},
		{"disjoint pairs", []uint16{0b0011, 0b1100}, 4, 2},
		{"pair cover beats greedy", []uint16{0b0110, 0b0101, 0b0011}, 4, 2},
		{"three forced", []uint16{0b0001, 0b0010, 0b0100}, 4, 3},
		{"broadcast mask", []uint16{0b1111, 0b1111}, 4, 1},
	}
	for _, tc := range cases {
		if got := minDirCover(tc.masks, tc.nd); got != tc.want {
			t.Errorf("%s: minDirCover(%04b...) = %d, want %d", tc.name, tc.masks[0:], got, tc.want)
		}
	}
}

// fuAt / cAt build the placed endpoints a crafted pre-check schedule
// needs: a producer FU slot and a consumer FU slot.
func fuAt(tt, r, c int) mrrg.Node { return mrrg.Node{T: tt, R: r, C: c, Class: mrrg.ClassFU} }

// TestCheckEdgeBandwidthBus exercises the shared-bus branch of the
// pre-check directly on crafted schedules: two nets that each force a
// link departure out of the same PE at the same wrapped cycle is a
// proof of infeasibility on a single-driver bus, and must surface as
// the typed diag.ErrBandwidthInfeasible before any routing runs.
func TestCheckEdgeBandwidthBus(t *testing.T) {
	f := arch.Fabric{CGRA: arch.Default(4, 4), Bandwidth: arch.BWBus}
	const ii = 4
	// Net 1 departs PE(1,1) eastward at cycle 0; net 2 departs the same
	// PE northward at cycle 4 == 0 (mod II). The wrap makes the clash.
	clash := []bwEdge{
		{net: 1, src: fuAt(0, 1, 1), dst: fuAt(1, 1, 2)},
		{net: 2, src: fuAt(4, 1, 1), dst: fuAt(5, 0, 1)},
	}
	err := checkEdgeBandwidth(f, ii, clash)
	if !errors.Is(err, diag.ErrBandwidthInfeasible) {
		t.Fatalf("two-net same-cycle clash: err = %v, want typed ErrBandwidthInfeasible", err)
	}

	// One net fanning out to two different-direction sinks in the same
	// cycle needs two distinct drives and is equally infeasible.
	fanout := []bwEdge{
		{net: 1, src: fuAt(0, 1, 1), dst: fuAt(1, 1, 2)},
		{net: 1, src: fuAt(0, 1, 1), dst: fuAt(1, 0, 1)},
	}
	if err := checkEdgeBandwidth(f, ii, fanout); !errors.Is(err, diag.ErrBandwidthInfeasible) {
		t.Fatalf("one-net two-direction fanout: err = %v, want typed ErrBandwidthInfeasible", err)
	}

	// Controls that must stay feasible: the same two nets separated by a
	// cycle; a slack edge (one spare cycle admits an RF detour, so no
	// departure is forced); and two sinks reachable through one shared
	// direction (a corner PE's single useful exit covers both).
	spread := []bwEdge{
		{net: 1, src: fuAt(0, 1, 1), dst: fuAt(1, 1, 2)},
		{net: 2, src: fuAt(1, 1, 1), dst: fuAt(2, 0, 1)},
	}
	if err := checkEdgeBandwidth(f, ii, spread); err != nil {
		t.Errorf("different cycles: unexpected %v", err)
	}
	slack := []bwEdge{
		{net: 1, src: fuAt(0, 1, 1), dst: fuAt(1, 1, 2)},
		{net: 2, src: fuAt(0, 1, 1), dst: fuAt(2, 0, 1)},
	}
	if err := checkEdgeBandwidth(f, ii, slack); err != nil {
		t.Errorf("slack second edge: unexpected %v", err)
	}
	shared := []bwEdge{
		{net: 1, src: fuAt(0, 0, 0), dst: fuAt(2, 1, 1)},
		{net: 1, src: fuAt(0, 0, 0), dst: fuAt(2, 0, 2)},
	}
	// Both (1,1) and (0,2) are 2 hops from (0,0); E and S both lead a
	// hop closer to (1,1), E leads closer to (0,2): direction E covers
	// both sinks with one drive.
	if err := checkEdgeBandwidth(f, ii, shared); err != nil {
		t.Errorf("sharable fanout: unexpected %v", err)
	}
}

// TestCheckEdgeBandwidthLanes exercises the per-direction branch: on a
// non-bus fabric each link still carries one value per cycle, so two
// distinct nets both forced onto the same singleton direction at the
// same wrapped cycle are infeasible, while re-counting the same net
// twice is not.
func TestCheckEdgeBandwidthLanes(t *testing.T) {
	f := arch.Fabric{CGRA: arch.Default(4, 4), Bandwidth: arch.BWNarrowRF}
	const ii = 4
	// PE(0,0) -> PE(0,1) is reachable a hop closer only via E (the S
	// neighbor is 2 hops away), so the mask is the singleton {E}.
	clash := []bwEdge{
		{net: 1, src: fuAt(0, 0, 0), dst: fuAt(1, 0, 1)},
		{net: 2, src: fuAt(4, 0, 0), dst: fuAt(5, 0, 1)},
	}
	err := checkEdgeBandwidth(f, ii, clash)
	if !errors.Is(err, diag.ErrBandwidthInfeasible) {
		t.Fatalf("two nets on one link: err = %v, want typed ErrBandwidthInfeasible", err)
	}

	same := []bwEdge{
		{net: 1, src: fuAt(0, 0, 0), dst: fuAt(1, 0, 1)},
		{net: 1, src: fuAt(4, 0, 0), dst: fuAt(5, 0, 1)},
	}
	if err := checkEdgeBandwidth(f, ii, same); err != nil {
		t.Errorf("same net counted twice: unexpected %v", err)
	}
	// A two-direction mask is a remaining choice, not a forced lane.
	choice := []bwEdge{
		{net: 1, src: fuAt(0, 1, 1), dst: fuAt(2, 2, 2)},
		{net: 2, src: fuAt(4, 1, 1), dst: fuAt(6, 2, 2)},
	}
	if err := checkEdgeBandwidth(f, ii, choice); err != nil {
		t.Errorf("choice remaining: unexpected %v", err)
	}
}

// rfUseMax re-counts, independently of Config.Validate, the worst-case
// register-file port usage of a mapping: distinct registers read and
// registers written by any one instruction.
func rfUseMax(cfg *arch.Config) (reads, writes int) {
	ndirs := arch.Dir(cfg.Fabric.NumLinkDirs())
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
			for t := 0; t < cfg.II; t++ {
				in := cfg.At(r, c, t)
				seen := map[int]bool{}
				note := func(o arch.Operand) {
					if o.Kind == arch.OpdReg {
						seen[o.Reg] = true
					}
				}
				note(in.SrcA)
				note(in.SrcB)
				for d := arch.Dir(0); d < ndirs; d++ {
					note(in.OutSel[d])
				}
				for _, w := range in.RegWr {
					note(w.Src)
				}
				if in.MemWrite.Active {
					note(in.MemWrite.Src)
				}
				if len(seen) > reads {
					reads = len(seen)
				}
				if len(in.RegWr) > writes {
					writes = len(in.RegWr)
				}
			}
		}
	}
	return reads, writes
}

// busDriveMax re-counts the worst-case number of distinct values a PE
// drives onto its outgoing links in one cycle: on a shared-bus fabric
// several directions may forward the same egress value, but two
// different values in one cycle would need two drivers.
func busDriveMax(cfg *arch.Config) int {
	ndirs := arch.Dir(cfg.Fabric.NumLinkDirs())
	max := 0
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
			for t := 0; t < cfg.II; t++ {
				in := cfg.At(r, c, t)
				vals := map[arch.Operand]bool{}
				for d := arch.Dir(0); d < ndirs; d++ {
					o := in.OutSel[d]
					if o.Kind != arch.OpdNone && o.Kind != arch.OpdHold {
						vals[o] = true
					}
				}
				if len(vals) > max {
					max = len(vals)
				}
			}
		}
	}
	return max
}

// TestBandwidthFabricsEndToEnd is the acceptance property of the
// bandwidth axis: every evaluation kernel on every non-unit bandwidth
// class either compiles to a mapping that validates AND respects the
// class's capacity when re-counted from the raw instruction stream, or
// fails with a typed infeasibility/congestion error — never an untyped
// error, never a capacity-violating "success".
func TestBandwidthFabricsEndToEnd(t *testing.T) {
	typed := []error{diag.ErrBandwidthInfeasible, diag.ErrRouteCongested, diag.ErrMemPortInfeasible}
	for _, bw := range []arch.BandwidthClass{arch.BWDouble, arch.BWBus, arch.BWNarrowRF} {
		for _, k := range kernel.Evaluation() {
			k, bw := k, bw
			t.Run(fmt.Sprintf("%s/%s", bw, k.Name), func(t *testing.T) {
				fab := arch.Fabric{CGRA: arch.Default(8, 8), Bandwidth: bw}
				res, err := CompileRequest(context.Background(), k, fab, Options{})
				if err != nil {
					for _, want := range typed {
						if errors.Is(err, want) {
							return
						}
					}
					t.Fatalf("untyped failure: %v", err)
				}
				if verr := res.Config.Validate(); verr != nil {
					t.Fatalf("mapping does not validate: %v", verr)
				}
				reads, writes := rfUseMax(res.Config)
				if reads > fab.RFReadCap() || writes > fab.RFWriteCap() {
					t.Errorf("RF usage %d reads / %d writes exceeds caps %d/%d",
						reads, writes, fab.RFReadCap(), fab.RFWriteCap())
				}
				if bw == arch.BWBus {
					if n := busDriveMax(res.Config); n > 1 {
						t.Errorf("a PE drives %d distinct egress values in one cycle on a shared bus", n)
					}
				}
			})
		}
	}
}

// placedEdges lists, independently of checkBandwidth's walk, every
// dependence of l's placed DFG the pre-check counts: a placed compute or
// load producer feeding a placed compute consumer, grouped by producer.
func placedEdges(l *layout) []bwEdge {
	d := l.g.DFG
	var edges []bwEdge
	for _, e := range d.Edges {
		from, to := d.Nodes[e.From], d.Nodes[e.To]
		if (!from.Kind.IsCompute() && from.Kind != ir.OpLoad) || !to.Kind.IsCompute() {
			continue
		}
		src, ok := l.nodeAbs(from.ID)
		dst, ok2 := l.nodeAbs(to.ID)
		if ok && ok2 {
			edges = append(edges, bwEdge{net: int32(from.ID), src: src, dst: dst})
		}
	}
	return edges
}

// TestCheckBandwidthMatchesEdgeList holds the pre-check the route stage
// runs — forced demands counted as the DFG is walked — to
// checkEdgeBandwidth over an edge list built here, on every attempt that
// reaches the route stage of the eight evaluation kernels on the
// congested workload's 8x8 narrow-rf and bus fabrics, at the attempt's
// II, half of it and 1: both nil, or the same typed error with the same
// text.
func TestCheckBandwidthMatchesEdgeList(t *testing.T) {
	route := slices.IndexFunc(attemptStages, func(st Stage) bool { return st.Name == StageRoute })
	feasible, infeasible := 0, 0
	for _, bw := range []arch.BandwidthClass{arch.BWNarrowRF, arch.BWBus} {
		fab := arch.DefaultFabric(8, 8)
		fab.Bandwidth = bw
		for _, k := range kernel.Evaluation() {
			front := newContext(context.Background(), k, fab, Options{Workers: 1, Memo: NewMemo()}.withDefaults())
			if err := frontStages.Run(front); err != nil {
				t.Fatalf("%s/%s: %v", k.Name, bw, err)
			}
			for i, a := range front.Attempts {
				c := front.forAttempt(a, context.Background(), i+1, 1, nil)
				if attemptStages[:route].Run(c) != nil {
					continue
				}
				// Folding the same placements into a shorter period makes
				// more of their forced departures collide.
				for _, ii := range []int{c.IIB, max(c.IIB/2, 1), 1} {
					l := &layout{cg: c.Fab, g: c.ISDG, cp: c.CP, sub: c.Sub, iib: ii, classes: c.Classes, byClust: c.ByCluster}
					got, want := l.checkBandwidth(), checkEdgeBandwidth(l.cg, ii, placedEdges(l))
					switch {
					case got == nil && want == nil:
						feasible++
					case got == nil || want == nil || got.Error() != want.Error() ||
						!errors.Is(got, diag.ErrBandwidthInfeasible) || !errors.Is(want, diag.ErrBandwidthInfeasible):
						t.Errorf("%s/%s attempt %d at II %d: pre-check %v, over the edge list %v", k.Name, bw, i+1, ii, got, want)
					default:
						infeasible++
					}
				}
			}
		}
	}
	t.Logf("%d checks feasible, %d proved infeasible", feasible, infeasible)
	if feasible < 1000 || infeasible < 50 {
		t.Errorf("%d feasible and %d infeasible checks: the inputs no longer exercise both outcomes", feasible, infeasible)
	}
}

// bwEdge is one placed producer→consumer dependence of a crafted
// schedule (checkEdgeBandwidth); net groups the edges of one producer
// instance (its drives in one direction are shared).
type bwEdge struct {
	net      int32
	src, dst mrrg.Node
}

// checkEdgeBandwidth is the pre-check over an explicit edge list: crafted
// schedules exercise it directly.
func checkEdgeBandwidth(f arch.Fabric, ii int, edges []bwEdge) error {
	var dem []bwDemand
	for _, e := range edges {
		if dm, ok := forcedDemand(f, ii, e.net, e.src, e.dst); ok {
			dem = append(dem, dm)
		}
	}
	return checkDemands(f, ii, dem)
}
