package serve

import (
	"errors"
	"fmt"
	"testing"

	"himap/internal/ir"
)

// TestWireOpKinds pins the body-op names the wire accepts: the twelve
// compute kinds and route, spelled exactly as ir renders them. Every
// other name — the memory kinds, nop, another case, the empty string —
// is a bad request naming the op kind.
func TestWireOpKinds(t *testing.T) {
	accepted := []string{"add", "sub", "mul", "div", "min", "max", "and", "or", "xor", "shl", "shr", "sel", "route"}
	rejected := []string{"nop", "load", "store", "", "ADD", "Route", "mov", "op(1)"}
	spec := func(op string) *KernelSpec {
		return &KernelSpec{Name: "OPS", Dim: 1, Body: []BodyOpWire{{Op: op}}}
	}
	for _, op := range accepted {
		k, err := spec(op).Build()
		if err != nil {
			t.Errorf("op %q: %v", op, err)
			continue
		}
		if got := k.Body[0].Kind; got.String() != op || !got.IsCompute() && got != ir.OpRoute {
			t.Errorf("op %q built kind %v", op, got)
		}
	}
	for _, op := range rejected {
		_, err := spec(op).Build()
		want := fmt.Sprintf("%v: body op 0 has unknown op kind %q", ErrBadRequest, op)
		if !errors.Is(err, ErrBadRequest) || err.Error() != want {
			t.Errorf("op %q: err = %v, want %s", op, err, want)
		}
	}
}
