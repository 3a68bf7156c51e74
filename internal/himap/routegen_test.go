package himap

import (
	"testing"

	"himap/internal/arch"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/mrrg"
	"himap/internal/systolic"
)

// buildLayout compiles the front half of the pipeline (through unique
// identification) for white-box tests of step 3's geometry.
func buildLayout(t *testing.T, k *kernel.Kernel, cg arch.Fabric, block []int, sch systolic.Scheme, sub *SubMapping) *layout {
	t.Helper()
	_, isdg, err := k.BuildISDG(block)
	if err != nil {
		t.Fatal(err)
	}
	m := sch.Realize(block)
	if err := m.Validate(k.DistanceVectors()); err != nil {
		t.Fatal(err)
	}
	cp := PlaceClusters(isdg, m)
	classes, byClust := IdentifyUnique(isdg, cp)
	return &layout{
		cg: cg, g: isdg, cp: cp, sub: sub,
		iib:     sub.Depth * m.IIS,
		classes: classes, byClust: byClust,
	}
}

func bicgLayout(t *testing.T) *layout { return bicgLayoutOn(t, arch.DefaultFabric(4, 4)) }

// bicgLayoutOn is BICG, block 4x4, on the first sub-CGRA mapping of cg.
func bicgLayoutOn(t *testing.T, cg arch.Fabric) *layout {
	k := kernel.BICG()
	f, err := k.GenericIDFG()
	if err != nil {
		t.Fatal(err)
	}
	subs, err := MapIDFG(f, cg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) == 0 {
		t.Fatal("no submapping")
	}
	sch := systolic.Scheme{SpaceDims: []int{0, 1}, TimePerm: nil, Skew: []int{1, 1}}
	return buildLayout(t, k, cg, []int{4, 4}, sch, subs[0])
}

func TestClassEnvelopeCoversAllMembers(t *testing.T) {
	l := bicgLayout(t)
	for _, cl := range l.classes {
		rMin, rMax, cMin, cMax := l.classEnvelope(cl)
		_, br, bc := l.regionBase(cl.Rep)
		for _, m := range cl.Members {
			_, mr, mc := l.regionBase(m)
			dr, dc := mr-br, mc-bc
			// Every envelope corner must stay on-array under this member's
			// translation.
			for _, r := range []int{rMin, rMax} {
				for _, c := range []int{cMin, cMax} {
					if r > rMax || c > cMax {
						continue
					}
					if !l.cg.InBounds(r+dr, c+dc) {
						t.Fatalf("envelope corner (%d,%d) of class %v leaves the array for member %v",
							r, c, l.g.Clusters[cl.Rep].Iter, l.g.Clusters[m].Iter)
					}
				}
			}
		}
	}
}

func TestClassEnvelopeSingletonIsWholeArray(t *testing.T) {
	l := bicgLayout(t)
	// The corner class (0,0) is a singleton: its envelope is the array.
	for _, cl := range l.classes {
		if len(cl.Members) == 1 {
			rMin, rMax, cMin, cMax := l.classEnvelope(cl)
			if rMin != 0 || cMin != 0 || rMax != l.cg.Rows-1 || cMax != l.cg.Cols-1 {
				t.Errorf("singleton envelope = (%d..%d, %d..%d)", rMin, rMax, cMin, cMax)
			}
			return
		}
	}
	t.Fatal("no singleton class found")
}

func TestRegionBaseFormula(t *testing.T) {
	l := bicgLayout(t)
	for _, c := range l.g.Clusters {
		bt, br, bc := l.regionBase(c.ID)
		if bt != l.cp.T[c.ID]*l.sub.Depth || br != l.cp.X[c.ID]*l.sub.S1 || bc != l.cp.Y[c.ID]*l.sub.S2 {
			t.Fatalf("regionBase(%v) = (%d,%d,%d)", c.Iter, bt, br, bc)
		}
	}
}

func TestNodeAbsWithinRegion(t *testing.T) {
	l := bicgLayout(t)
	for _, n := range l.g.DFG.Nodes {
		abs, ok := l.nodeAbs(n.ID)
		if !ok {
			continue
		}
		ci := l.g.ClusterOf(n.ID)
		bt, br, bc := l.regionBase(ci)
		if abs.T < bt || abs.T >= bt+l.sub.Depth {
			t.Fatalf("node %v at t=%d outside window [%d,%d)", n, abs.T, bt, bt+l.sub.Depth)
		}
		if abs.R < br || abs.R >= br+l.sub.S1 || abs.C < bc || abs.C >= bc+l.sub.S2 {
			t.Fatalf("node %v at (%d,%d) outside region", n, abs.R, abs.C)
		}
	}
}

func TestChoosePinKinds(t *testing.T) {
	l := bicgLayout(t)
	l.computePins()
	// BiCG's route ops: r propagates along j (east), p along i (south).
	// Interior classes must get producer-side Out pins; boundary classes
	// whose route is fed by a load get transparent memory pins.
	sawOut, sawMem := false, false
	for idx := range l.classes {
		for _, pin := range l.pinRel[idx] {
			if pin.Out {
				sawOut = true
				if pin.Dir != arch.East && pin.Dir != arch.South {
					t.Errorf("unexpected pin direction %v for BiCG", pin.Dir)
				}
			}
			if pin.Mem {
				sawMem = true
			}
		}
	}
	if !sawOut {
		t.Error("no crossbar pins chosen for interior relays")
	}
	if !sawMem {
		t.Error("no transparent memory pins chosen for boundary relays")
	}
}

func TestPinAbsResolvesForEveryRouteNode(t *testing.T) {
	l := bicgLayout(t)
	l.computePins()
	l.loadRel = make([]map[int]RelPlace, len(l.classes))
	for i := range l.loadRel {
		l.loadRel[i] = map[int]RelPlace{}
	}
	for _, n := range l.g.DFG.Nodes {
		if n.Kind != ir.OpRoute {
			continue
		}
		pin, ok := l.pinAbs(n.ID)
		if !ok {
			// Mem pins of boundary loads resolve only after load slotting;
			// accept unresolved only for those.
			ci := l.g.ClusterOf(n.ID)
			pr := l.pinRel[l.byClust[ci]][n.BodyOp]
			if !pr.Mem {
				t.Fatalf("route %v has no resolvable pin", n)
			}
			continue
		}
		if pin.Class != mrrg.ClassOut && pin.Class != mrrg.ClassReg && pin.Class != mrrg.ClassMemRead {
			t.Fatalf("pin %v has unexpected class", pin)
		}
	}
}

func TestWrapMod(t *testing.T) {
	cases := []struct{ t, m, want int }{
		{0, 8, 0}, {7, 8, 7}, {8, 8, 0}, {-1, 8, 7}, {-9, 8, 7}, {17, 8, 1},
	}
	for _, c := range cases {
		if got := wrapMod(c.t, c.m); got != c.want {
			t.Errorf("wrapMod(%d,%d) = %d, want %d", c.t, c.m, got, c.want)
		}
	}
}
