// Package sim is a cycle-accurate software simulator of the CGRA of
// internal/arch, used for functional validation of generated mappings
// (§VI: "We perform functional validation of the resultant mappings
// through cycle-accurate software simulation of the executions on CGRA
// architecture").
//
// Each cycle, every PE executes the configuration word of the current
// schedule slot (cycle mod II): the crossbar resolves ALU and output-
// register sources from the input latches (neighbor output registers of
// the previous cycle), the register file, immediates, and the data-memory
// read port; the ALU computes; output registers, register writes, and
// memory writes commit at the end of the cycle.
package sim

import (
	"fmt"
	"himap/internal/diag"

	"himap/internal/arch"
	"himap/internal/ir"
)

type portKey struct{ r, c, slot int }

// Machine is a simulated CGRA executing one configuration.
type Machine struct {
	Cfg *arch.Config

	regs    [][][]int64
	outRegs [][][]int64 // committed at end of cycle
	inLatch [][][]int64 // previous cycle's neighbor out registers

	feeds    map[portKey][]int64
	feedPos  map[portKey]int
	storeLog map[portKey][]int64

	cycle int
}

// New builds a machine with zeroed state.
func New(cfg *arch.Config) *Machine {
	m := &Machine{
		Cfg:      cfg,
		feeds:    map[portKey][]int64{},
		feedPos:  map[portKey]int{},
		storeLog: map[portKey][]int64{},
	}
	a := cfg.Fabric
	alloc := func(depth int) [][][]int64 {
		out := make([][][]int64, a.Rows)
		for r := range out {
			out[r] = make([][]int64, a.Cols)
			for c := range out[r] {
				out[r][c] = make([]int64, depth)
			}
		}
		return out
	}
	m.regs = alloc(a.NumRegs)
	m.outRegs = alloc(int(arch.MaxDirs))
	m.inLatch = alloc(int(arch.MaxDirs))
	return m
}

// SetFeed installs the value stream of the memory read port at (r, c),
// schedule slot slot: the e-th execution of the slot pops values[e]
// (exhausted streams read zero).
func (m *Machine) SetFeed(r, c, slot int, values []int64) {
	m.feeds[portKey{r, c, slot}] = values
}

// StoreLog returns the values written by the memory write port at (r, c),
// slot slot, in execution order.
func (m *Machine) StoreLog(r, c, slot int) []int64 {
	return m.storeLog[portKey{r, c, slot}]
}

// Step executes one cycle.
func (m *Machine) Step() error {
	a := m.Cfg.Fabric
	slot := m.cycle % m.Cfg.II

	// Latch neighbor outputs from the end of the previous cycle; links
	// follow the fabric topology (wrap-around on a torus, diagonals on
	// mesh+diag), so a missing link latches zero.
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			for d := arch.Dir(0); d < arch.MaxDirs; d++ {
				nr, nc, ok := a.LinkNeighbor(r, c, d)
				if !ok {
					m.inLatch[r][c][d] = 0
					continue
				}
				// The neighbor in direction d sends through its output
				// register pointing back at us.
				m.inLatch[r][c][d] = m.outRegs[nr][nc][d.Opposite()]
			}
		}
	}

	type commit struct {
		r, c    int
		outs    [arch.MaxDirs]int64
		outOK   [arch.MaxDirs]bool
		regWr   []arch.RegWrite
		regVals []int64
	}
	var commits []commit

	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			in := &m.Cfg.Slots[r][c][slot]
			var memVal int64
			if (in.MemRead.Active || in.MemWrite.Active) && !a.MemCapable(r, c) {
				return fmt.Errorf("sim: PE(%d,%d) slot %d: memory access on compute-only PE: %w", r, c, slot, diag.ErrConfigInvalid)
			}
			if in.MemRead.Active {
				k := portKey{r, c, slot}
				pos := m.feedPos[k]
				if vals, ok := m.feeds[k]; ok && pos < len(vals) {
					memVal = vals[pos]
				}
				m.feedPos[k] = pos + 1
			}
			resolve := func(o arch.Operand, aluOut int64, haveALU bool) (int64, error) {
				switch o.Kind {
				case arch.OpdIn:
					return m.inLatch[r][c][o.Dir], nil
				case arch.OpdReg:
					return m.regs[r][c][o.Reg], nil
				case arch.OpdConst:
					return o.Const, nil
				case arch.OpdMem:
					if !in.MemRead.Active {
						return 0, fmt.Errorf("sim: PE(%d,%d) slot %d: mem operand without read: %w", r, c, slot, diag.ErrConfigInvalid)
					}
					return memVal, nil
				case arch.OpdALU:
					if !haveALU {
						return 0, fmt.Errorf("sim: PE(%d,%d) slot %d: ALU operand before compute: %w", r, c, slot, diag.ErrConfigInvalid)
					}
					return aluOut, nil
				}
				return 0, fmt.Errorf("sim: PE(%d,%d) slot %d: unresolvable operand %v: %w", r, c, slot, o, diag.ErrConfigInvalid)
			}

			var aluOut int64
			haveALU := false
			if in.Op.IsCompute() {
				av, err := resolve(in.SrcA, 0, false)
				if err != nil {
					return err
				}
				var bv int64
				if in.Op.Arity() > 1 {
					bv, err = resolve(in.SrcB, 0, false)
					if err != nil {
						return err
					}
				}
				aluOut = in.Op.Eval(av, bv)
				haveALU = true
			} else if in.Op != ir.OpNop {
				return fmt.Errorf("sim: PE(%d,%d) slot %d: unexpected op %v: %w", r, c, slot, in.Op, diag.ErrConfigInvalid)
			}

			cm := commit{r: r, c: c}
			for d := arch.Dir(0); d < arch.MaxDirs; d++ {
				sel := in.OutSel[d]
				switch sel.Kind {
				case arch.OpdNone, arch.OpdHold:
					// register keeps its value
				default:
					v, err := resolve(sel, aluOut, haveALU)
					if err != nil {
						return err
					}
					cm.outs[d] = v
					cm.outOK[d] = true
				}
			}
			for _, w := range in.RegWr {
				v, err := resolve(w.Src, aluOut, haveALU)
				if err != nil {
					return err
				}
				cm.regWr = append(cm.regWr, w)
				cm.regVals = append(cm.regVals, v)
			}
			if in.MemWrite.Active {
				v, err := resolve(in.MemWrite.Src, aluOut, haveALU)
				if err != nil {
					return err
				}
				k := portKey{r, c, slot}
				m.storeLog[k] = append(m.storeLog[k], v)
			}
			commits = append(commits, cm)
		}
	}

	// End-of-cycle commit.
	for _, cm := range commits {
		for d := 0; d < int(arch.MaxDirs); d++ {
			if cm.outOK[d] {
				m.outRegs[cm.r][cm.c][d] = cm.outs[d]
			}
		}
		for i, w := range cm.regWr {
			m.regs[cm.r][cm.c][w.Reg] = cm.regVals[i]
		}
	}
	m.cycle++
	return nil
}

// Run executes n cycles.
func (m *Machine) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
