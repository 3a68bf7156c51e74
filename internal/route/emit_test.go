package route

import (
	"errors"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
)

// ids is the identity ref table of a template recorded with node ids as
// refs.
func ids(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestEmitterSingleHop(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(1, 2), 2)
	s := NewSession(g)
	src := fu(0, 0, 0)
	s.Reserve(src)
	net := s.NewNet(src)
	consumer := fu(1, 0, 1)
	path, _, err := s.RouteSink(net, g.OperandTargets(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.NewConfig(arch.DefaultFabric(1, 2), 2)
	e := NewEmitter(cfg, nil)
	tm := e.NewTemplate()
	if err := tm.PlaceOp(src, ir.OpMul, 0); err != nil {
		t.Fatal(err)
	}
	if err := tm.PlaceOp(consumer, ir.OpAdd, 1); err != nil {
		t.Fatal(err)
	}
	if err := tm.EmitPath(path, 0, -1); err != nil {
		t.Fatal(err)
	}
	if err := tm.SetOperand(consumer, 0, path, 0); err != nil {
		t.Fatal(err)
	}
	tm.SetConstOperand(consumer, 7, 1)
	if err := e.Replay(tm, 0, 0, 0, ids(2)); err != nil {
		t.Fatal(err)
	}
	prod := cfg.At(0, 0, 0)
	if prod.Op != ir.OpMul || prod.OutSel[arch.East].Kind != arch.OpdALU || prod.Comment != "n0" {
		t.Errorf("producer instr %v (%q)", prod, prod.Comment)
	}
	cons := cfg.At(0, 1, 1)
	if cons.Op != ir.OpAdd || cons.SrcA != arch.FromIn(arch.West) || cons.SrcB != arch.FromConst(7) {
		t.Errorf("consumer instr %v", cons)
	}
}

func TestEmitterDetectsConflicts(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 2), 2)
	e := NewEmitter(cfg, nil)
	n := fu(0, 0, 0)
	a, b := e.NewTemplate(), e.NewTemplate()
	if err := a.PlaceOp(n, ir.OpMul, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.PlaceOp(n, ir.OpAdd, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(a, 0, 0, 0, ids(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(b, 0, 0, 0, ids(2)); !errors.Is(err, diag.ErrReplicaConflict) {
		t.Errorf("two ops on one FU slot: err = %v, want ErrReplicaConflict", err)
	}
	if err := e.Replay(a, 0, 0, 0, ids(2)); err != nil {
		t.Errorf("idempotent re-stamp must succeed: %v", err)
	}
	// The schedule repeats every II cycles: t and t+II are one slot.
	if err := e.Replay(b, 2, 0, 0, ids(2)); !errors.Is(err, diag.ErrReplicaConflict) {
		t.Errorf("replica at t+II: err = %v, want ErrReplicaConflict", err)
	}
	// On a mesh a translate that leaves the array is an error, not a panic.
	if err := e.Replay(a, 0, 0, 2, ids(2)); !errors.Is(err, diag.ErrReplicaConflict) {
		t.Errorf("off-array translate: err = %v, want ErrReplicaConflict", err)
	}
}

// TestEmitterTranslatedTemplatesConflict: two class templates whose
// translates drive one output register with different values must be
// refused, and the error must name both values the way tags always
// read.
func TestEmitterTranslatedTemplatesConflict(t *testing.T) {
	fab := arch.DefaultFabric(2, 4)
	cfg := arch.NewConfig(fab, 4)
	e := NewEmitter(cfg, nil)
	record := func(src mrrg.Node, ref int) *Template {
		tm := e.NewTemplate()
		out := mrrg.Node{T: src.T, R: src.R, C: src.C, Class: mrrg.ClassOut, Idx: uint8(arch.East)}
		if err := tm.EmitPath(Path{src, out}, ref, -1); err != nil {
			t.Fatal(err)
		}
		return tm
	}
	a, b := record(fu(0, 0, 0), 0), record(fu(1, 1, 1), 1)
	table := []int32{12, 345}
	if err := e.Replay(a, 1, 1, 2, table); err != nil {
		t.Fatal(err)
	}
	// b translated by (0,0,1) lands on a's translate: OUT.E @(1,2) t1.
	err := e.Replay(b, 4, 0, 1, table)
	if !errors.Is(err, diag.ErrReplicaConflict) {
		t.Fatalf("err = %v, want ErrReplicaConflict", err)
	}
	for _, want := range []string{`"n12"`, `"n345"`, "OUT.E @(1,2)t1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict text %q does not name %s", err, want)
		}
	}
}

// TestEmitterRestampContents: the same value re-stamping a field is
// idempotent only with the same contents.
func TestEmitterRestampContents(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 2), 2)
	e := NewEmitter(cfg, nil)
	consumer := fu(1, 0, 1)
	west := mrrg.Node{T: 0, R: 0, C: 0, Class: mrrg.ClassOut, Idx: uint8(arch.East)}
	a, b := e.NewTemplate(), e.NewTemplate()
	if err := a.SetOperand(consumer, 0, Path{fu(0, 0, 0), west}, 0); err != nil {
		t.Fatal(err)
	}
	b.add(consumer, laneSrcA, 0, sufResult, 0, arch.FromReg(1))
	for _, tm := range []*Template{a, a} {
		if err := e.Replay(tm, 0, 0, 0, ids(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Replay(b, 0, 0, 0, ids(1)); !errors.Is(err, diag.ErrReplicaConflict) {
		t.Errorf("same value, different operand: err = %v, want ErrReplicaConflict", err)
	}
	if got := cfg.At(0, 1, 1).SrcA; got != arch.FromIn(arch.West) {
		t.Errorf("refused re-stamp overwrote SrcA: %v", got)
	}
}

// TestEmitterWideRegisterFileLanes: claim lanes are sized from the
// fabric. With 20 registers, register 3's write lane and register 19's
// hold lane are distinct resources (fixed 16-register lanes aliased them).
func TestEmitterWideRegisterFileLanes(t *testing.T) {
	fab := arch.DefaultFabric(1, 1)
	fab.NumRegs = 20
	e := NewEmitter(arch.NewConfig(fab, 2), nil)
	tm := e.NewTemplate()
	slot := fu(0, 0, 0)
	tm.add(slot, e.laneWrite(3), 0, sufResult, 0, arch.FromALU())
	tm.add(slot, e.laneHold(19), 1, sufResult, 0, arch.Operand{})
	if err := e.Replay(tm, 0, 0, 0, ids(2)); err != nil {
		t.Fatalf("distinct register lanes conflicted: %v", err)
	}
	if e.laneHold(19) >= e.laneWrite(0) || e.laneWrite(19) >= e.lanes() {
		t.Errorf("lanes overlap: hold(19)=%d write(0)=%d write(19)=%d of %d",
			e.laneHold(19), e.laneWrite(0), e.laneWrite(19), e.lanes())
	}
}

func TestEmitterRegisterPath(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(1, 1), 4)
	s := NewSession(g)
	src := fu(0, 0, 0)
	s.Reserve(src)
	net := s.NewNet(src)
	consumer := fu(2, 0, 0)
	path, _, err := s.RouteSink(net, g.OperandTargets(2, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 4)
	e := NewEmitter(cfg, nil)
	tm := e.NewTemplate()
	if err := tm.PlaceOp(src, ir.OpMul, 0); err != nil {
		t.Fatal(err)
	}
	if err := tm.PlaceOp(consumer, ir.OpAdd, 1); err != nil {
		t.Fatal(err)
	}
	if err := tm.EmitPath(path, 0, -1); err != nil {
		t.Fatal(err)
	}
	if err := tm.SetOperand(consumer, 0, path, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(tm, 0, 0, 0, ids(2)); err != nil {
		t.Fatal(err)
	}
	// The producer's slot must write a register from the ALU.
	prod := cfg.At(0, 0, 0)
	if len(prod.RegWr) != 1 || prod.RegWr[0].Src.Kind != arch.OpdALU {
		t.Fatalf("producer %v should write a register from the ALU", prod)
	}
	reg := prod.RegWr[0].Reg
	cons := cfg.At(0, 0, 2)
	if cons.SrcA != arch.FromReg(reg) {
		t.Errorf("consumer %v should read r%d", cons, reg)
	}
	// Fill the free operand ports (a real mapping routes them too), then
	// the whole configuration must pass architectural validation.
	prod.SrcA, prod.SrcB = arch.FromConst(1), arch.FromConst(2)
	cons.SrcB = arch.FromConst(3)
	if err := cfg.Validate(); err != nil {
		t.Errorf("emitted config invalid: %v", err)
	}
}

// TestEmitterMemoryStamps: loads and stores are labelled from the DFG
// node and correlated by slot and phase — an access at a negative real
// cycle belongs to the previous period.
func TestEmitterMemoryStamps(t *testing.T) {
	d := ir.NewDFG([]int{2, 2})
	ld := d.AddNode(ir.Node{Kind: ir.OpLoad, Tensor: "A", Index: ir.IterVec{1, -2}})
	st := d.AddNode(ir.Node{Kind: ir.OpStore, Tensor: "out", Index: ir.IterVec{7}})
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 8)
	e := NewEmitter(cfg, d)
	tm := e.NewTemplate()
	mrd := mrrg.Node{T: -1, Class: mrrg.ClassMemRead}
	if err := tm.PlaceLoad(mrd, ld.ID); err != nil {
		t.Fatal(err)
	}
	if err := tm.EmitPath(Path{mrd, {T: -1, Class: mrrg.ClassMemWrite}}, ld.ID, st.ID); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(tm, -8, 0, 0, ids(2)); err != nil {
		t.Fatal(err)
	}
	in := cfg.At(0, 0, 7)
	if in.MemRead.Tag != "A@1,-2" || in.MemWrite.Tag != "out@7" || in.MemWrite.Src != arch.FromMem() {
		t.Errorf("memory word %v", in)
	}
	wantLd := arch.IOSpec{Slot: 7, Phase: -2, Tensor: "A", Index: []int{1, -2}}
	if len(cfg.Loads) != 1 || cfg.Loads[0].Slot != wantLd.Slot || cfg.Loads[0].Phase != wantLd.Phase ||
		cfg.Loads[0].Tensor != "A" || len(cfg.Loads[0].Index) != 2 {
		t.Errorf("Loads = %+v, want %+v", cfg.Loads, wantLd)
	}
	if len(cfg.Stores) != 1 || cfg.Stores[0].Phase != -2 || cfg.Stores[0].Tensor != "out" {
		t.Errorf("Stores = %+v", cfg.Stores)
	}
}
