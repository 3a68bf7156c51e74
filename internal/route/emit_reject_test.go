package route

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
)

// at is a resource node of any class.
func at(class mrrg.Class, t, r, c int, idx uint8) mrrg.Node {
	return mrrg.Node{T: t, R: r, C: c, Class: class, Idx: idx}
}

// TestEmitRejectsIllegalPaths: the emitter records only what a PE word
// can express. A slot of the wrong class, a path step no crossbar
// selector realizes, or an operand that is a hold is refused with
// ErrConfigInvalid naming the node, never recorded.
func TestEmitRejectsIllegalPaths(t *testing.T) {
	outE := func(t, r, c int) mrrg.Node { return at(mrrg.ClassOut, t, r, c, uint8(arch.East)) }
	outN := func(t, r, c int) mrrg.Node { return at(mrrg.ClassOut, t, r, c, uint8(arch.North)) }
	rows := []struct {
		name, want string
		record     func(tm *Template) error
	}{
		{"op on an output register", "PlaceOp on OUT.E", func(tm *Template) error { return tm.PlaceOp(outE(0, 0, 0), ir.OpAdd, 0) }},
		{"move on a memory port", "PlaceOp on MRD", func(tm *Template) error {
			return tm.PlaceMove(at(mrrg.ClassMemRead, 0, 0, 0, 0), 0)
		}},
		{"load on an FU", "PlaceLoad on FU", func(tm *Template) error { return tm.PlaceLoad(fu(0, 0, 0), 0) }},
		{"ALU result read by a neighbor's output", "ALU tap across PEs", func(tm *Template) error {
			return tm.EmitPath(Path{fu(0, 0, 0), outE(1, 0, 1)}, 0, -1)
		}},
		{"memory read tapped by a neighbor", "mem tap across PEs", func(tm *Template) error {
			return tm.EmitPath(Path{at(mrrg.ClassMemRead, 0, 0, 0, 0), outE(1, 0, 1)}, 0, -1)
		}},
		{"RF read without its register", "RF read not preceded by register node", func(tm *Template) error {
			return tm.EmitPath(Path{fu(0, 0, 0), at(mrrg.ClassRFRead, 0, 0, 0, 0), outE(0, 0, 0)}, 0, -1)
		}},
		{"output driven by a write port", "no operand form for RFW", func(tm *Template) error {
			return tm.EmitPath(Path{at(mrrg.ClassRFWrite, 0, 0, 0, 0), outE(0, 0, 0)}, 0, -1)
		}},
		{"hold across output registers", "hold across output registers", func(tm *Template) error {
			return tm.EmitPath(Path{outE(0, 0, 0), outN(1, 0, 0)}, 0, -1)
		}},
		{"register written from a neighbor's ALU", "ALU tap across PEs", func(tm *Template) error {
			return tm.EmitPath(Path{fu(0, 0, 0), at(mrrg.ClassRFWrite, 0, 0, 1, 0), at(mrrg.ClassReg, 1, 0, 1, 0)}, 0, -1)
		}},
		{"memory written from a neighbor's ALU", "ALU tap across PEs", func(tm *Template) error {
			return tm.EmitPath(Path{fu(0, 0, 0), at(mrrg.ClassMemWrite, 0, 0, 1, 0)}, 0, 1)
		}},
		{"FU inside a path", "unexpected path node FU", func(tm *Template) error {
			return tm.EmitPath(Path{fu(0, 0, 0), fu(1, 0, 0)}, 0, -1)
		}},
		{"operand of an output register", "SetOperand on OUT.E", func(tm *Template) error {
			return tm.SetOperand(outE(1, 0, 0), 0, Path{fu(0, 0, 0)}, 0)
		}},
		{"operand from a neighbor's ALU", "ALU tap across PEs", func(tm *Template) error {
			return tm.SetOperand(fu(1, 0, 1), 0, Path{fu(0, 0, 0)}, 0)
		}},
		{"operand that is a hold", "operand cannot be a hold", func(tm *Template) error {
			return tm.SetOperand(fu(1, 0, 0), 1, Path{fu(0, 0, 0), outE(0, 0, 0)}, 0)
		}},
	}
	for _, r := range rows {
		e := NewEmitter(arch.NewConfig(arch.DefaultFabric(2, 2), 2), nil)
		tm := e.NewTemplate()
		err := r.record(tm)
		if err == nil || !strings.Contains(err.Error(), r.want) || !errors.Is(err, diag.ErrConfigInvalid) {
			t.Errorf("%s: %v, want ErrConfigInvalid containing %q", r.name, err, r.want)
		}
	}
}

// TestReplayRestampsRegisterWrites: a register write re-stamped by the
// same value must find the same source in the word; a different source
// is a conflict on the write lane.
func TestReplayRestampsRegisterWrites(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 2)
	e := NewEmitter(cfg, nil)
	write := func(src arch.Operand) *Template {
		tm := e.NewTemplate()
		tm.add(fu(0, 0, 0), e.laneWrite(1), 0, sufResult, 0, src)
		return tm
	}
	if err := e.Replay(write(arch.FromALU()), 0, 0, 0, ids(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(write(arch.FromALU()), 0, 0, 0, ids(1)); err != nil {
		t.Errorf("idempotent register write re-stamp: %v", err)
	}
	err := e.Replay(write(arch.FromIn(arch.North)), 0, 0, 0, ids(1))
	if !errors.Is(err, diag.ErrReplicaConflict) || !strings.Contains(err.Error(), `REGW1 @(0,0)t0 re-stamped by "n0" with different contents`) {
		t.Errorf("register write re-stamped from another source: %v", err)
	}
	if w := cfg.At(0, 0, 0).RegWr; len(w) != 1 || w[0] != (arch.RegWrite{Reg: 1, Src: arch.FromALU()}) {
		t.Errorf("register writes %v, want the first stamp's alone", w)
	}
}

// TestRouteDFGReportsUnroutableEdge: a consumer placed before its
// producer has no path; RouteDFG returns the search's failure.
func TestRouteDFGReportsUnroutableEdge(t *testing.T) {
	d := ir.NewDFG(nil)
	ld := d.AddNode(&ir.Node{Kind: ir.OpLoad, BodyOp: -1, Tensor: "A", Index: ir.IterVec{0}})
	st := d.AddNode(&ir.Node{Kind: ir.OpStore, BodyOp: -1, Tensor: "B", Index: ir.IterVec{0}})
	d.AddEdge(ld.ID, st.ID, 0)
	ses := NewSession(mrrg.New(arch.DefaultFabric(2, 2), 2))
	_, err := RouteDFG(context.Background(), ses, d, []Placement{{T: 3}, {T: 0}}, 2)
	if err == nil || !strings.Contains(err.Error(), "no path from net 1 (src MRD@(0,0)t3) to MWR@(0,0)t0") {
		t.Errorf("store routed before its load: %v, want the sink's search failure", err)
	}
}

// TestBucketQueueGenerationWrap: when the generation counter wraps, the
// buckets stamped before the wrap are cleared, so none reads as live in
// the new search; a push below the cursor folds into the current bucket,
// and an empty queue peeks -1.
func TestBucketQueueGenerationWrap(t *testing.T) {
	var q bucketQueue
	q.reset()
	q.push(heapItem{cost: 0.3, key: 1}) // bucket 3, generation 1, never drained
	q.gen = math.MaxUint32
	q.reset() // wraps to generation 1 again
	if q.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", q.gen)
	}
	q.push(heapItem{cost: 0.5, key: 2})
	if d := q.peek(); d != 5 {
		t.Fatalf("peek = %d after the wrap, want 5: a bucket stamped before the wrap is live", d)
	}
	if it := q.pop(); it.key != 2 {
		t.Fatalf("popped key %d, want 2", it.key)
	}
	q.push(heapItem{cost: 0.1, key: 3})
	if d := q.peek(); d != 5 {
		t.Errorf("a push below the cursor peeks at bucket %d, want the cursor's 5", d)
	}
	if it := q.pop(); it.key != 3 {
		t.Errorf("popped key %d, want 3", it.key)
	}
	if d := q.peek(); d != -1 {
		t.Errorf("empty queue peeks %d, want -1", d)
	}
}
