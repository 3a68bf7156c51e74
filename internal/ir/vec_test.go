package ir

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIterVecAddSub(t *testing.T) {
	a := IterVec{1, 2, 3}
	b := IterVec{4, -1, 0}
	if got := a.Add(b); !got.Equal(IterVec{5, 1, 3}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !got.Equal(IterVec{-3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
}

func TestIterVecAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	IterVec{1}.Add(IterVec{1, 2})
}

func TestIterVecDot(t *testing.T) {
	if got := (IterVec{1, 2, 3}).Dot(IterVec{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %d, want 32", got)
	}
}

func TestIterVecLex(t *testing.T) {
	cases := []struct {
		v    IterVec
		want bool
	}{
		{IterVec{0, 0}, true},
		{IterVec{1, -5}, true},
		{IterVec{0, 1}, true},
		{IterVec{-1, 9}, false},
		{IterVec{0, -1}, false},
	}
	for _, c := range cases {
		if got := c.v.LexNonNegative(); got != c.want {
			t.Errorf("LexNonNegative(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestIterVecInBox(t *testing.T) {
	box := []int{2, 3}
	if !(IterVec{1, 2}).InBox(box) {
		t.Error("(1,2) should be in box 2x3")
	}
	if (IterVec{2, 0}).InBox(box) {
		t.Error("(2,0) should be outside box 2x3")
	}
	if (IterVec{0, -1}).InBox(box) {
		t.Error("(0,-1) should be outside box 2x3")
	}
	if (IterVec{0}).InBox(box) {
		t.Error("dimension mismatch should be outside")
	}
}

func TestIterVecKeyRoundTripUnique(t *testing.T) {
	seen := map[string]bool{}
	ForEachPoint([]int{3, 3, 3}, func(v IterVec) {
		k := v.Key()
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
	})
	if len(seen) != 27 {
		t.Fatalf("expected 27 keys, got %d", len(seen))
	}
}

func TestForEachPointOrderAndCount(t *testing.T) {
	var pts []IterVec
	ForEachPoint([]int{2, 3}, func(v IterVec) { pts = append(pts, v.Clone()) })
	want := []IterVec{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if !reflect.DeepEqual(pts, want) {
		t.Errorf("ForEachPoint order = %v", pts)
	}
	for i, p := range pts {
		if got := PointIndex(p, []int{2, 3}); got != i {
			t.Errorf("PointIndex(%v) = %d, want %d", p, got, i)
		}
	}
}

func TestBoxSize(t *testing.T) {
	if got := BoxSize([]int{4, 5, 6}); got != 120 {
		t.Errorf("BoxSize = %d", got)
	}
	if got := BoxSize(nil); got != 1 {
		t.Errorf("BoxSize(nil) = %d, want 1", got)
	}
}

// Property: Add and Sub are inverse; Dot is symmetric.
func TestIterVecProperties(t *testing.T) {
	gen := func(r *rand.Rand) IterVec {
		n := 1 + r.Intn(4)
		v := make(IterVec, n)
		for i := range v {
			v[i] = r.Intn(21) - 10
		}
		return v
	}
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			a := gen(r)
			b := make(IterVec, len(a))
			for i := range b {
				b[i] = r.Intn(21) - 10
			}
			args[0] = reflect.ValueOf(a)
			args[1] = reflect.ValueOf(b)
		},
	}
	inverse := func(a, b IterVec) bool { return a.Add(b).Sub(b).Equal(a) }
	if err := quick.Check(inverse, cfg); err != nil {
		t.Errorf("Add/Sub inverse: %v", err)
	}
	symmetric := func(a, b IterVec) bool { return a.Dot(b) == b.Dot(a) }
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Errorf("Dot symmetry: %v", err)
	}
}

func TestLexNonNegativeNegationProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		v := make(IterVec, len(raw))
		zero := true
		for i, x := range raw {
			v[i] = int(x)
			if x != 0 {
				zero = false
			}
		}
		if zero {
			return v.LexNonNegative() && neg(v).LexNonNegative()
		}
		// Exactly one of v, -v is lexicographically non-negative.
		return v.LexNonNegative() != neg(v).LexNonNegative()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// neg returns -v.
func neg(v IterVec) IterVec {
	w := make(IterVec, len(v))
	for i := range v {
		w[i] = -v[i]
	}
	return w
}
