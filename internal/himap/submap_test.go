package himap

import (
	"errors"
	"math"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/mrrg"
	"himap/internal/route"
)

func TestMapIDFGAllKernels(t *testing.T) {
	// §VI quotes the sub-CGRA shapes HiMap found; our MAP must at least
	// reach the same utilization frontier: 100% candidates exist for all
	// kernels given our memory-port model.
	for _, k := range kernel.Evaluation() {
		f, err := k.GenericIDFG()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		maps, err := MapIDFG(f, arch.DefaultFabric(8, 8), 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(maps) == 0 {
			t.Errorf("%s: no sub-CGRA mappings", k.Name)
			continue
		}
		best := maps[0]
		if best.Util < 1.0-1e-9 {
			t.Errorf("%s: best sub-CGRA utilization %.0f%%, want 100%%", k.Name, best.Util*100)
		}
		// The minimal depth equals the compute-op count for 1x1 shapes.
		if best.S1 == 1 && best.S2 == 1 && best.Depth != k.NumComputeOps() {
			t.Errorf("%s: 1x1 depth %d, want %d", k.Name, best.Depth, k.NumComputeOps())
		}
	}
}

func TestMapIDFGSortedByUtilization(t *testing.T) {
	f, err := kernel.BICG().GenericIDFG()
	if err != nil {
		t.Fatal(err)
	}
	maps, err := MapIDFG(f, arch.DefaultFabric(8, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(maps); i++ {
		if maps[i].Util > maps[i-1].Util+1e-9 {
			t.Errorf("mappings not sorted: %v before %v", maps[i-1], maps[i])
		}
	}
}

func TestMapIDFGShapesDivideArray(t *testing.T) {
	f, err := kernel.GEMM().GenericIDFG()
	if err != nil {
		t.Fatal(err)
	}
	maps, err := MapIDFG(f, arch.DefaultFabric(6, 6), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range maps {
		if 6%m.S1 != 0 || 6%m.S2 != 0 {
			t.Errorf("sub-CGRA %v does not evenly cluster a 6x6 array", m)
		}
	}
}

func TestMapIDFGRelPlacementsInBounds(t *testing.T) {
	for _, k := range kernel.Evaluation() {
		f, err := k.GenericIDFG()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mustMapIDFG(t, f, arch.DefaultFabric(4, 4), 2) {
			for bodyOp, rel := range m.Rel {
				if rel.T < 0 || rel.T >= m.Depth || rel.R < 0 || rel.R >= m.S1 || rel.C < 0 || rel.C >= m.S2 {
					t.Errorf("%s: body op %d placed at %+v outside (%d,%d,%d)",
						k.Name, bodyOp, rel, m.S1, m.S2, m.Depth)
				}
			}
		}
	}
}

func TestMapIDFGPlacesAllComputesAndLoads(t *testing.T) {
	k := kernel.BICG()
	f, err := k.GenericIDFG()
	if err != nil {
		t.Fatal(err)
	}
	maps, err := MapIDFG(f, arch.DefaultFabric(8, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) == 0 {
		t.Fatal("no mappings")
	}
	m := maps[0]
	nFU, nMem := 0, 0
	for _, rel := range m.Rel {
		switch rel.Kind {
		case PlaceFU:
			nFU++
		case PlaceMemRead:
			nMem++
		}
	}
	if nFU != 4 {
		t.Errorf("placed %d compute ops, want 4", nFU)
	}
	// Interior BiCG iteration loads A twice (for m1 and m2).
	if nMem != 2 {
		t.Errorf("placed %d loads, want 2", nMem)
	}
}

func TestMapIDFGDepthSlackYieldsFallbacks(t *testing.T) {
	f, err := kernel.GEMM().GenericIDFG()
	if err != nil {
		t.Fatal(err)
	}
	noSlack := mustMapIDFG(t, f, arch.DefaultFabric(4, 4), 0)
	slack := mustMapIDFG(t, f, arch.DefaultFabric(4, 4), 3)
	if len(slack) <= len(noSlack) {
		t.Errorf("depth slack should add fallback mappings: %d vs %d", len(slack), len(noSlack))
	}
}

// mustMapIDFG is a test helper asserting MapIDFG succeeds.
func mustMapIDFG(t *testing.T, f *ir.IDFG, fab arch.Fabric, slack int) []*SubMapping {
	t.Helper()
	subs, err := MapIDFG(f, fab, slack)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func TestClaimMemRead(t *testing.T) {
	all := route.Box{R0: 0, R1: 1, C0: 0, C1: 3}
	memRead := func(t, r, c int) mrrg.Node { return mrrg.Node{T: t, R: r, C: c, Class: mrrg.ClassMemRead} }
	claim := func(ses *route.Session, fab arch.Fabric, t, r, c, floor int, in route.Box) (mrrg.Node, bool) {
		return claimMemRead(ses, fab, t, r, c, 0, 4, floor, in)
	}

	// The consumer's own port, latest cycle first; once it is full the
	// search stops even though every neighbor's port is free.
	memAll := arch.DefaultFabric(2, 4)
	ses := route.NewSession(mrrg.NewAcyclic(memAll, 4))
	ses.Reserve(memRead(2, 1, 1))
	if got, ok := claim(ses, memAll, 2, 1, 1, 0, all); !ok || got != memRead(1, 1, 1) {
		t.Fatalf("own port: got %v %v, want %v", got, ok, memRead(1, 1, 1))
	}
	ses.Reserve(memRead(0, 1, 1))
	if got, ok := claim(ses, memAll, 2, 1, 1, 0, all); ok {
		t.Fatalf("own port full: claimed %v on another PE", got)
	}

	// A compute-only consumer: the nearest memory PE (column 3 from
	// column 2), at least its hop distance back; the region filter skips
	// PEs outside it even when they are nearer.
	memB := memAll
	memB.Mem = arch.MemBoundary
	ses = route.NewSession(mrrg.NewAcyclic(memB, 4))
	if got, ok := claim(ses, memB, 3, 1, 2, 0, all); !ok || got != memRead(2, 1, 3) {
		t.Fatalf("nearest: got %v %v, want %v", got, ok, memRead(2, 1, 3))
	}
	left := route.Box{R0: 0, R1: 1, C0: 0, C1: 1}
	if got, ok := claim(ses, memB, 3, 1, 2, 0, left); !ok || got != memRead(1, 1, 0) {
		t.Fatalf("region: got %v %v, want %v", got, ok, memRead(1, 1, 0))
	}
	// minBack above the hop distance holds on a neighbor's port too.
	if got, ok := claimMemRead(ses, memB, 3, 1, 2, 3, 4, 0, all); !ok || got != memRead(0, 1, 3) {
		t.Fatalf("minBack: got %v %v, want %v", got, ok, memRead(0, 1, 3))
	}

	// On an acyclic graph floor 0 ends the search at cycle 0; on a
	// modulo graph a negative floor lets it wrap into the previous period.
	one := arch.DefaultFabric(1, 1)
	ses = route.NewSession(mrrg.NewAcyclic(one, 4))
	ses.Reserve(memRead(1, 0, 0))
	ses.Reserve(memRead(0, 0, 0))
	if got, ok := claim(ses, one, 1, 0, 0, 0, all); ok {
		t.Fatalf("acyclic: claimed %v before cycle 0", got)
	}
	ses = route.NewSession(mrrg.New(one, 4))
	ses.Reserve(memRead(0, 0, 0))
	if got, ok := claim(ses, one, 0, 0, 0, math.MinInt, all); !ok || got != memRead(-1, 0, 0) {
		t.Fatalf("modulo: got %v %v, want %v", got, ok, memRead(-1, 0, 0))
	}
}

// mapIDFGAllocCeiling is the measured allocation count of one MapIDFG
// of GEMM on 8x8 (141; 147 under the race detector) plus 15 %: the dense
// state once per call, the session's storage, and the sub-mappings.
// Building the state for every shape and depth tried instead takes 265.
const mapIDFGAllocCeiling = 162

func TestMapIDFGAllocCeiling(t *testing.T) {
	f, err := kernel.GEMM().GenericIDFG()
	if err != nil {
		t.Fatal(err)
	}
	fab := arch.DefaultFabric(8, 8)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := MapIDFG(f, fab, depthSlack); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per MapIDFG", allocs)
	if allocs > mapIDFGAllocCeiling {
		t.Fatalf("MapIDFG of GEMM on 8x8 regressed: %.0f allocs per run, ceiling is %d", allocs, mapIDFGAllocCeiling)
	}
}

// BenchmarkMapIDFG runs MAP() alone: the eight evaluation kernels' generic
// IDFGs on the default 8x8 and 16x16 fabrics, sixteen calls per op.
func BenchmarkMapIDFG(b *testing.B) {
	var idfgs []*ir.IDFG
	for _, k := range kernel.Evaluation() {
		f, err := k.GenericIDFG()
		if err != nil {
			b.Fatal(err)
		}
		idfgs = append(idfgs, f)
	}
	fabs := []arch.Fabric{arch.DefaultFabric(8, 8), arch.DefaultFabric(16, 16)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range idfgs {
			for _, fab := range fabs {
				if _, err := MapIDFG(f, fab, depthSlack); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// TestChooseBoundaryLoad drives step 3's caller of claimMemRead on a
// one-cluster layout: a 3x4 boundary-memory fabric (memory in columns 0
// and 3) whose cluster region is row 1, one 1x4 tile of depth 3.
func TestChooseBoundaryLoad(t *testing.T) {
	fab := arch.DefaultFabric(3, 4)
	fab.Mem = arch.MemBoundary
	// oneCluster builds the layout of a load (body op 1) feeding a node
	// of kind to (body op 2), which MAP() placed at rel when it computes.
	oneCluster := func(to ir.OpKind, rel RelPlace) (*layout, *route.Session) {
		d := ir.NewDFG([]int{1})
		ld := d.AddNode(&ir.Node{Kind: ir.OpLoad, BodyOp: 1, Iter: ir.IterVec{0}})
		cons := d.AddNode(&ir.Node{Kind: to, BodyOp: 2, Iter: ir.IterVec{0}})
		d.AddEdge(ld.ID, cons.ID, 0)
		g, err := ir.BuildISDG(d)
		if err != nil {
			t.Fatal(err)
		}
		l := &layout{
			cg: fab, g: g, cp: &ClusterPlace{T: []int{0}, X: []int{1}, Y: []int{0}},
			sub:     &SubMapping{S1: 1, S2: 4, Depth: 3, Rel: map[int]RelPlace{}},
			iib:     3,
			classes: []*UniqueClass{{Rep: 0, Members: []int{0}}}, byClust: []int{0},
			pinRel: []map[int]RelPlaceReg{{}}, loadRel: []map[int]RelPlace{{}},
		}
		if to.IsCompute() {
			l.sub.Rel[2] = rel
		} else {
			l.pinRel[0][2] = RelPlaceReg{T: rel.T, R: rel.R, C: rel.C}
		}
		return l, route.NewSession(mrrg.New(fab, l.iib))
	}

	// A compute-only consumer at (2, 1, 2): the nearest memory PE of the
	// region, (1, 3), one hop and so one cycle back.
	l, ses := oneCluster(ir.OpAdd, RelPlace{T: 2, R: 0, C: 2})
	if err := l.chooseBoundaryLoad(ses, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := l.loadRel[0][1], (RelPlace{T: 1, R: 0, C: 3, Kind: PlaceMemRead}); got != want {
		t.Fatalf("compute-only consumer: load at %+v, want %+v", got, want)
	}
	// With every read port of the region taken, rows 0 and 2 are still
	// free but outside the region: the load fails instead.
	l, ses = oneCluster(ir.OpAdd, RelPlace{T: 2, R: 0, C: 2})
	for tt := 0; tt < l.iib; tt++ {
		ses.Reserve(mrrg.Node{T: tt, R: 1, C: 0, Class: mrrg.ClassMemRead})
		ses.Reserve(mrrg.Node{T: tt, R: 1, C: 3, Class: mrrg.ClassMemRead})
	}
	if err := l.chooseBoundaryLoad(ses, 0, 0); !errors.Is(err, diag.ErrMemPortInfeasible) {
		t.Fatalf("region full: got %v (slot %+v), want ErrMemPortInfeasible", err, l.loadRel[0][1])
	}

	// A register pin at (2, 1, 0), a PE with a port: reaching a register
	// takes a cycle, so the load reads its own port one cycle earlier.
	l, ses = oneCluster(ir.OpRoute, RelPlace{T: 2, R: 0, C: 0})
	if err := l.chooseBoundaryLoad(ses, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := l.loadRel[0][1], (RelPlace{T: 1, R: 0, C: 0, Kind: PlaceMemRead}); got != want {
		t.Fatalf("register pin: load at %+v, want %+v", got, want)
	}

	// With a live region set, the region's ports are read only while they
	// lie in Live: one column short, and the load claims nothing.
	l, ses = oneCluster(ir.OpAdd, RelPlace{T: 2, R: 0, C: 2})
	ses.ResetLive(ses.G, []route.Box{{R0: 1, R1: 2, C0: 0, C1: 3}})
	ses.Live = route.Box{R0: 1, R1: 2, C0: 0, C1: 2}
	if err := l.chooseBoundaryLoad(ses, 0, 0); !errors.Is(err, route.ErrOutsideLive) || len(l.loadRel[0]) != 0 {
		t.Fatalf("region outside Live: got %v (slots %v), want ErrOutsideLive and no slot", err, l.loadRel[0])
	}
}
