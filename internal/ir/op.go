package ir

import "fmt"

// OpKind identifies the operation performed by a DFG node.
type OpKind uint8

// Operation kinds. Compute kinds occupy an FU (ALU) slot; OpLoad and
// OpStore occupy the per-PE data-memory read/write port of the cycle they
// are scheduled in; OpRoute is a pure data-movement node realized on
// crossbar output registers or register-file entries, never on an FU.
const (
	OpNop OpKind = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMin
	OpMax
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSel // t = a if a != 0 else b (used by predicated kernels)
	OpLoad
	OpStore
	OpRoute
	opKindCount
)

var opNames = [...]string{
	OpNop:   "nop",
	OpAdd:   "add",
	OpSub:   "sub",
	OpMul:   "mul",
	OpDiv:   "div",
	OpMin:   "min",
	OpMax:   "max",
	OpAnd:   "and",
	OpOr:    "or",
	OpXor:   "xor",
	OpShl:   "shl",
	OpShr:   "shr",
	OpSel:   "sel",
	OpLoad:  "load",
	OpStore: "store",
	OpRoute: "route",
}

// String returns the mnemonic of the operation kind.
func (k OpKind) String() string {
	if int(k) < len(opNames) && opNames[k] != "" {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// ParseOpKind returns the kind whose mnemonic is name, exactly as String
// renders it.
func ParseOpKind(name string) (OpKind, bool) {
	for k, n := range opNames {
		if n == name {
			return OpKind(k), true
		}
	}
	return 0, false
}

// IsCompute reports whether the kind occupies an FU slot. Only compute
// nodes count toward the CGRA resource utilization U = |V_D| / |V_H^F|
// of the paper's problem formulation.
func (k OpKind) IsCompute() bool {
	switch k {
	case OpAdd, OpSub, OpMul, OpDiv, OpMin, OpMax, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSel:
		return true
	}
	return false
}

// IsMemory reports whether the kind uses the per-PE data-memory port.
func (k OpKind) IsMemory() bool { return k == OpLoad || k == OpStore }

// Arity returns the number of value inputs the operation consumes.
func (k OpKind) Arity() int {
	switch k {
	case OpNop, OpLoad:
		return 0
	case OpRoute, OpStore:
		return 1
	default:
		return 2
	}
}

// Eval computes the integer result of a binary/unary compute kind.
// It panics for non-compute kinds.
func (k OpKind) Eval(a, b int64) int64 {
	switch k {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0 // CGRA ALUs saturate rather than trap; golden matches.
		}
		return a / b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << uint64(b&63)
	case OpShr:
		return a >> uint64(b&63)
	case OpSel:
		if a != 0 {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("ir: Eval on non-compute kind %v", k))
}
