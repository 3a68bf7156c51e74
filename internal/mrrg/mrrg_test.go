package mrrg

import (
	"testing"

	"himap/internal/arch"
)

func collectSucc(g *Graph, n Node) []Node {
	var out []Node
	g.Succ(n, func(m Node) { out = append(out, m) })
	return out
}

func TestWrapAndValidTime(t *testing.T) {
	g := New(arch.DefaultFabric(4, 4), 5)
	if got := g.WrapTime(7); got != 2 {
		t.Errorf("WrapTime(7) = %d", got)
	}
	if got := g.WrapTime(-1); got != 4 {
		t.Errorf("WrapTime(-1) = %d", got)
	}
	if !g.ValidTime(1000) {
		t.Error("modular graph accepts any non-negative real time")
	}
	ga := NewAcyclic(arch.DefaultFabric(4, 4), 5)
	if ga.ValidTime(5) {
		t.Error("acyclic graph must reject t beyond depth")
	}
	if !ga.ValidTime(4) {
		t.Error("acyclic graph must accept t = depth-1")
	}
}

func TestKeyFoldsModulo(t *testing.T) {
	g := New(arch.DefaultFabric(2, 2), 3)
	a := Node{T: 1, R: 0, C: 1, Class: ClassOut, Idx: 2}
	b := Node{T: 4, R: 0, C: 1, Class: ClassOut, Idx: 2}
	if g.Key(a) != g.Key(b) {
		t.Error("occupancy keys of t and t+II must coincide")
	}
	if RealKey(a) == RealKey(b) {
		t.Error("real keys of t and t+II must differ")
	}
}

func TestShifted(t *testing.T) {
	n := Node{T: 2, R: 1, C: 1, Class: ClassReg, Idx: 3}
	s := n.Shifted(4, -1, 1)
	if s.T != 6 || s.R != 0 || s.C != 2 || s.Class != ClassReg || s.Idx != 3 {
		t.Errorf("Shifted = %v", s)
	}
}

func TestKeyUniqueness(t *testing.T) {
	g := New(arch.DefaultFabric(3, 3), 4)
	seen := map[uint64]Node{}
	for tt := 0; tt < 4; tt++ {
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				nodes := []Node{
					{T: tt, R: r, C: c, Class: ClassFU},
					{T: tt, R: r, C: c, Class: ClassMemRead},
					{T: tt, R: r, C: c, Class: ClassMemWrite},
					{T: tt, R: r, C: c, Class: ClassRFRead},
					{T: tt, R: r, C: c, Class: ClassRFWrite},
				}
				for d := uint8(0); d < 4; d++ {
					nodes = append(nodes, Node{T: tt, R: r, C: c, Class: ClassOut, Idx: d})
				}
				for k := uint8(0); k < 4; k++ {
					nodes = append(nodes, Node{T: tt, R: r, C: c, Class: ClassReg, Idx: k})
				}
				for _, n := range nodes {
					k := g.Key(n)
					if prev, dup := seen[k]; dup {
						t.Fatalf("key collision: %v vs %v", prev, n)
					}
					seen[k] = n
				}
			}
		}
	}
}

// TestKeysHoldWideRegisterFiles: register indices past 7 used to spill
// into the next class's key range. Keys must stay distinct for every
// (class, idx) of a 20-register, 8-direction PE and stay ordered
// lexicographically by (T, R, C, Class, Idx) — the router's tie-break.
func TestKeysHoldWideRegisterFiles(t *testing.T) {
	fab := arch.Fabric{CGRA: arch.Default(2, 2), Topology: arch.TopoMeshDiag}
	fab.NumRegs = 20
	g := New(fab, 4)
	var nodes []Node
	for tt := 0; tt < 2; tt++ {
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				for slot := 0; slot < g.SlotsPerPE(); slot++ {
					cl, idx := g.SlotResource(slot)
					nodes = append(nodes, Node{T: tt, R: r, C: c, Class: cl, Idx: idx})
				}
			}
		}
	}
	less := func(a, b Node) bool {
		if a.T != b.T {
			return a.T < b.T
		}
		if a.R != b.R {
			return a.R < b.R
		}
		if a.C != b.C {
			return a.C < b.C
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Idx < b.Idx
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if (RealKey(a) < RealKey(b)) != less(a, b) || (g.Key(a) < g.Key(b)) != less(a, b) {
				t.Fatalf("key order of %v vs %v is not lexicographic (RealKey %d vs %d, Key %d vs %d)",
					a, b, RealKey(a), RealKey(b), g.Key(a), g.Key(b))
			}
		}
	}
}

func TestFUSuccessors(t *testing.T) {
	g := New(arch.DefaultFabric(3, 3), 4)
	succ := collectSucc(g, Node{T: 1, R: 1, C: 1, Class: ClassFU})
	// Interior PE: 4 out regs + RF write + mem write.
	if len(succ) != 6 {
		t.Fatalf("interior FU successors = %d (%v), want 6", len(succ), succ)
	}
	// Corner PE: 2 out regs + RF write + mem write.
	succ = collectSucc(g, Node{T: 1, R: 0, C: 0, Class: ClassFU})
	if len(succ) != 4 {
		t.Fatalf("corner FU successors = %d (%v), want 4", len(succ), succ)
	}
}

func TestOutSuccessorsCrossPEAndWrap(t *testing.T) {
	g := New(arch.DefaultFabric(2, 2), 3)
	// Out East of (0,0) at the last cycle of the period: arrives at (0,1)
	// at real cycle 3, whose occupancy key folds onto cycle 0.
	succ := collectSucc(g, Node{T: 2, R: 0, C: 0, Class: ClassOut, Idx: uint8(arch.East)})
	foundNext := false
	foundHold := false
	for _, m := range succ {
		if m.T == 3 && m.R == 0 && m.C == 1 && m.Class == ClassRFWrite {
			foundNext = true
			if g.Key(m) != g.Key(Node{T: 0, R: 0, C: 1, Class: ClassRFWrite}) {
				t.Error("real cycle 3 must share its occupancy key with cycle 0")
			}
		}
		if m.T == 3 && m.R == 0 && m.C == 0 && m.Class == ClassOut && arch.Dir(m.Idx) == arch.East {
			foundHold = true
		}
	}
	if !foundNext {
		t.Errorf("out register must deliver at the next real cycle: %v", succ)
	}
	if !foundHold {
		t.Errorf("out register must be able to hold: %v", succ)
	}
}

func TestRegisterHoldChain(t *testing.T) {
	g := New(arch.DefaultFabric(2, 2), 4)
	succ := collectSucc(g, Node{T: 1, R: 0, C: 0, Class: ClassReg, Idx: 2})
	var hold, read bool
	for _, m := range succ {
		if m.Class == ClassReg && m.Idx == 2 && m.T == 2 {
			hold = true
		}
		if m.Class == ClassRFRead && m.T == 1 {
			read = true
		}
	}
	if !hold || !read {
		t.Errorf("register successors missing hold/read: %v", succ)
	}
}

func TestRFWriteFansOutToRegisters(t *testing.T) {
	g := New(arch.DefaultFabric(2, 2), 4)
	succ := collectSucc(g, Node{T: 0, R: 1, C: 1, Class: ClassRFWrite})
	if len(succ) != 4 {
		t.Fatalf("RF write successors = %d, want 4 registers", len(succ))
	}
	for _, m := range succ {
		if m.Class != ClassReg || m.T != 1 {
			t.Errorf("unexpected RF write successor %v", m)
		}
	}
}

func TestMemWriteIsSink(t *testing.T) {
	g := New(arch.DefaultFabric(2, 2), 4)
	if succ := collectSucc(g, Node{T: 0, R: 0, C: 0, Class: ClassMemWrite}); len(succ) != 0 {
		t.Errorf("mem write must be a sink, got %v", succ)
	}
}

func TestAcyclicGraphStopsAtDepth(t *testing.T) {
	g := NewAcyclic(arch.DefaultFabric(2, 2), 2)
	// Out at the last cycle has nowhere to go (no wrap).
	succ := collectSucc(g, Node{T: 1, R: 0, C: 0, Class: ClassOut, Idx: uint8(arch.East)})
	if len(succ) != 0 {
		t.Errorf("acyclic out at final cycle should have no successors, got %v", succ)
	}
}

func TestOperandTargets(t *testing.T) {
	g := New(arch.DefaultFabric(3, 3), 4)
	targets := g.OperandTargets(2, 1, 1)
	// Interior consumer: 4 neighbor out regs + RF read + mem read.
	if len(targets) != 6 {
		t.Fatalf("operand targets = %d (%v), want 6", len(targets), targets)
	}
	for _, m := range targets {
		switch m.Class {
		case ClassOut:
			if m.T != 1 {
				t.Errorf("out target at t=%d, want 1", m.T)
			}
			// The out register must point back at (1,1).
			nr, nc, ok := g.Fab.LinkNeighbor(m.R, m.C, arch.Dir(m.Idx))
			if !ok || nr != 1 || nc != 1 {
				t.Errorf("out target %v does not deliver to (1,1)", m)
			}
		case ClassRFRead, ClassMemRead:
			if m.T != 2 || m.R != 1 || m.C != 1 {
				t.Errorf("local target %v misplaced", m)
			}
		default:
			t.Errorf("unexpected target class %v", m.Class)
		}
	}
}

func TestCapacity(t *testing.T) {
	g := New(arch.DefaultFabric(2, 2), 2)
	if g.Capacity(ClassFU) != 1 || g.Capacity(ClassOut) != 1 || g.Capacity(ClassReg) != 1 {
		t.Error("unit capacities wrong")
	}
	if g.Capacity(ClassRFRead) != 2 || g.Capacity(ClassRFWrite) != 2 {
		t.Error("RF port capacities wrong")
	}
}

// TestCapacityPerBandwidthClass pins how each bandwidth class
// materializes as occupancy capacities: the RF axes move, link and
// single-occupancy resources never do (the configuration word encodes
// one value per link per cycle in every class).
func TestCapacityPerBandwidthClass(t *testing.T) {
	cases := []struct {
		bw              arch.BandwidthClass
		rfRead, rfWrite int
	}{
		{arch.BWUnit, 2, 2},
		{arch.BWDouble, 4, 4},
		{arch.BWBus, 2, 2},
		{arch.BWNarrowRF, 1, 1},
	}
	for _, tc := range cases {
		g := New(arch.Fabric{CGRA: arch.Default(2, 2), Bandwidth: tc.bw}, 2)
		if got := g.Capacity(ClassRFRead); got != tc.rfRead {
			t.Errorf("%s: RF read capacity %d, want %d", tc.bw, got, tc.rfRead)
		}
		if got := g.Capacity(ClassRFWrite); got != tc.rfWrite {
			t.Errorf("%s: RF write capacity %d, want %d", tc.bw, got, tc.rfWrite)
		}
		for _, c := range []Class{ClassFU, ClassOut, ClassReg, ClassMemRead, ClassMemWrite} {
			if got := g.Capacity(c); got != 1 {
				t.Errorf("%s: Capacity(%s) = %d, want 1", tc.bw, c, got)
			}
		}
	}
}

// TestDenseKeyBusCollapse pins the shared-bus occupancy semantics: on a
// BWBus fabric every egress direction of a PE folds onto one dense
// occupancy slot (so the router charges them as a single lane), other
// classes keep distinct keys, and the SharedOut flag — which disables
// the router's linear-key fast path — is set exactly there.
func TestDenseKeyBusCollapse(t *testing.T) {
	bus := New(arch.Fabric{CGRA: arch.Default(3, 3), Bandwidth: arch.BWBus}, 4)
	mesh := New(arch.DefaultFabric(3, 3), 4)
	if !bus.SharedOut() || mesh.SharedOut() {
		t.Fatalf("SharedOut: bus %v, mesh %v", bus.SharedOut(), mesh.SharedOut())
	}
	nd := bus.NumDirs()
	base := Node{T: 1, R: 1, C: 1, Class: ClassOut, Idx: 0}
	for d := 1; d < nd; d++ {
		n := base
		n.Idx = uint8(d)
		if bus.DenseKey(n) != bus.DenseKey(base) {
			t.Errorf("bus: direction %d has its own occupancy slot", d)
		}
		if mesh.DenseKey(n) == mesh.DenseKey(base) {
			t.Errorf("mesh: directions 0 and %d collide", d)
		}
	}
	// The collapse is confined to ClassOut: registers keep one key per
	// index on the bus fabric too.
	r0 := Node{T: 1, R: 1, C: 1, Class: ClassReg, Idx: 0}
	r1 := Node{T: 1, R: 1, C: 1, Class: ClassReg, Idx: 1}
	if bus.DenseKey(r0) == bus.DenseKey(r1) {
		t.Error("bus: register indices collapsed")
	}
	// Dense keys must stay injective over distinct (wrapped) resources,
	// with exactly the Out directions identified.
	seen := map[int]Node{}
	for _, n := range []Node{
		{T: 0, R: 0, C: 0, Class: ClassFU},
		{T: 0, R: 0, C: 0, Class: ClassOut, Idx: 0},
		{T: 0, R: 0, C: 1, Class: ClassOut, Idx: 0},
		{T: 1, R: 0, C: 0, Class: ClassOut, Idx: 0},
		{T: 0, R: 0, C: 0, Class: ClassRFRead},
		{T: 0, R: 0, C: 0, Class: ClassRFWrite},
		{T: 0, R: 0, C: 0, Class: ClassMemRead},
		{T: 0, R: 0, C: 0, Class: ClassMemWrite},
		{T: 0, R: 0, C: 0, Class: ClassReg, Idx: 3},
	} {
		k := bus.DenseKey(n)
		if prev, dup := seen[k]; dup {
			t.Errorf("dense key collision between %v and %v", prev, n)
		}
		seen[k] = n
	}
}

func TestSuccessorsStayInBoundsAndMonotone(t *testing.T) {
	g := New(arch.DefaultFabric(2, 2), 3)
	check := func(n Node) {
		g.Succ(n, func(m Node) {
			if m.T < n.T || m.T > n.T+1 {
				t.Errorf("non-monotone successor %v of %v", m, n)
			}
			if !g.Fab.InBounds(m.R, m.C) {
				t.Errorf("out-of-bounds successor %v of %v", m, n)
			}
		})
	}
	for tt := 0; tt < 3; tt++ {
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				check(Node{T: tt, R: r, C: c, Class: ClassFU})
				check(Node{T: tt, R: r, C: c, Class: ClassMemRead})
				check(Node{T: tt, R: r, C: c, Class: ClassRFWrite})
				for d := uint8(0); d < 4; d++ {
					check(Node{T: tt, R: r, C: c, Class: ClassOut, Idx: d})
				}
				for k := uint8(0); k < 4; k++ {
					check(Node{T: tt, R: r, C: c, Class: ClassReg, Idx: k})
				}
			}
		}
	}
}
