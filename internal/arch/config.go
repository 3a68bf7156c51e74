package arch

import (
	"fmt"
	"himap/internal/diag"
)

// IOSpec correlates one configured memory access with a logical tensor
// element: PE (R,C)'s port at schedule slot Slot touches Tensor[Index].
// Phase is the floor division of the access's real schedule time by II:
// with blocks initiating every II cycles, execution number e of the slot
// serves block e - Phase (negative phases are pre-fetches into the
// previous period — classic software-pipelining prologue behaviour). The
// cycle-accurate simulator uses these to feed and drain the array.
type IOSpec struct {
	R, C, Slot int
	Phase      int
	Tensor     string
	Index      []int
}

// Config is a complete CGRA mapping: for every PE a repeating stream of II
// instructions. It is the output of the HiMap and baseline mappers and the
// input of the cycle-accurate simulator.
type Config struct {
	Fabric Fabric
	II     int
	// Slots[r][c][t] is PE (r,c)'s instruction at cycle t mod II.
	Slots [][][]Instr
	// Loads and Stores carry the memory-access correlation metadata.
	Loads  []IOSpec
	Stores []IOSpec
}

// NewConfig allocates an all-NOP configuration for the fabric.
func NewConfig(f Fabric, ii int) *Config {
	if ii < 1 {
		panic(fmt.Sprintf("arch: II = %d", ii))
	}
	cfg := &Config{Fabric: f, II: ii}
	// One backing array for every word: the streams are fixed-length, and
	// stamping and validation walk them PE by PE.
	words := make([]Instr, f.NumPEs()*ii)
	streams := make([][]Instr, f.NumPEs())
	cfg.Slots = make([][][]Instr, f.Rows)
	for r := 0; r < f.Rows; r++ {
		cfg.Slots[r] = streams[r*f.Cols : (r+1)*f.Cols : (r+1)*f.Cols]
		for cc := 0; cc < f.Cols; cc++ {
			k := (r*f.Cols + cc) * ii
			cfg.Slots[r][cc] = words[k : k+ii : k+ii]
		}
	}
	return cfg
}

// At returns a pointer to the instruction of PE (r,c) at slot t mod II.
func (cfg *Config) At(r, c, t int) *Instr {
	return &cfg.Slots[r][c][((t%cfg.II)+cfg.II)%cfg.II]
}

// Validate checks every instruction against the architecture's port
// limits and verifies the configuration-memory bound: the number of
// distinct instructions per PE must fit in ConfigDepth (HiMap stores only
// unique instructions; the PE program counter regenerates the stream, §V).
func (cfg *Config) Validate() error {
	ndirs := cfg.Fabric.NumLinkDirs()
	// Port limits come from the fabric's effective capacities, not the
	// declared CGRA fields: a double-pumped RF legally serves twice the
	// declared ports per cycle, and a narrowed RF must be held to one
	// even if the base array declares more.
	eff := cfg.Fabric.CGRA
	eff.RFReadPorts = cfg.Fabric.RFReadCap()
	eff.RFWritePorts = cfg.Fabric.RFWriteCap()
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
			for t := 0; t < cfg.II; t++ {
				in := &cfg.Slots[r][c][t]
				if err := in.Validate(eff); err != nil {
					return fmt.Errorf("PE(%d,%d) slot %d: %v: %w", r, c, t, err, diag.ErrConfigInvalid)
				}
				for d := ndirs; d < int(MaxDirs); d++ {
					if in.OutSel[d].Kind != OpdNone {
						return fmt.Errorf("PE(%d,%d) slot %d: OutSel %s but fabric has %d link directions: %w",
							r, c, t, Dir(d), ndirs, diag.ErrConfigInvalid)
					}
				}
				if (in.MemRead.Active || in.MemWrite.Active) && !cfg.Fabric.MemCapable(r, c) {
					return fmt.Errorf("PE(%d,%d) slot %d: memory access on compute-only PE: %w", r, c, t, diag.ErrConfigInvalid)
				}
			}
			if n := cfg.UniqueInstrs(r, c); n > cfg.Fabric.ConfigDepth {
				return fmt.Errorf("PE(%d,%d): %d unique instructions exceed configuration memory depth %d: %w",
					r, c, n, cfg.Fabric.ConfigDepth, diag.ErrConfigInvalid)
			}
		}
	}
	return nil
}

// UniqueInstrs returns the number of distinct instruction words in PE
// (r,c)'s stream — what HiMap actually stores in configuration memory.
// Provenance comments and memory correlation tags are simulation
// metadata, not configuration bits (addresses come from the PE's address
// generation walking the iteration space), so they do not distinguish
// words.
func (cfg *Config) UniqueInstrs(r, c int) int {
	words := cfg.Slots[r][c]
	n := 0
	for t := range words {
		first := true
		for u := 0; u < t && first; u++ {
			first = !words[t].SameWord(&words[u])
		}
		if first {
			n++
		}
	}
	return n
}

// MaxUniqueInstrs returns the maximum per-PE unique instruction count of
// the whole configuration.
func (cfg *Config) MaxUniqueInstrs() int {
	max := 0
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
			if n := cfg.UniqueInstrs(r, c); n > max {
				max = n
			}
		}
	}
	return max
}

// DataMemoryDemand returns the peak per-PE data-memory footprint of the
// mapping: every configured memory access needs a double-buffered word,
// and accesses whose schedule phase leads or trails the block window
// (software-pipelining prologue/epilogue) need one extra word per phase
// of skew.
func (cfg *Config) DataMemoryDemand() int {
	max := 0
	cfg.eachDataMemNeed(func(_, _ int, need int) {
		if need > max {
			max = need
		}
	})
	return max
}

// CheckDataMemory reports whether the mapping's streams fit entirely in
// the per-PE data memories (the paper adds them "to eliminate memory
// access bottlenecks in some kernels"). Exceeding the capacity is not a
// correctness failure — the surplus simply streams from the shared
// on-chip memory banks of Figure 1 instead of the PE-local memory — so
// this is a diagnostic, not part of Validate.
func (cfg *Config) CheckDataMemory() error {
	var err error
	cfg.eachDataMemNeed(func(r, c, need int) {
		if err == nil && need > cfg.Fabric.DataMemWords {
			err = fmt.Errorf("PE(%d,%d): steady-state streaming needs %d data-memory words, have %d: %w",
				r, c, need, cfg.Fabric.DataMemWords, diag.ErrConfigInvalid)
		}
	})
	return err
}

func (cfg *Config) eachDataMemNeed(fn func(r, c, need int)) {
	need := make([][]int, cfg.Fabric.Rows)
	for r := range need {
		need[r] = make([]int, cfg.Fabric.Cols)
	}
	account := func(specs []IOSpec) {
		for _, s := range specs {
			skew := s.Phase
			if skew < 0 {
				skew = -skew
			}
			need[s.R][s.C] += 2 + skew
		}
	}
	account(cfg.Loads)
	account(cfg.Stores)
	for r := range need {
		for c := range need[r] {
			fn(r, c, need[r][c])
		}
	}
}

// BusyFUs counts the FU-active slots of the configuration — the
// numerator of achieved utilization as seen by the hardware.
func (cfg *Config) BusyFUs() int {
	n := 0
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
			for t := 0; t < cfg.II; t++ {
				if cfg.Slots[r][c][t].Op.IsCompute() {
					n++
				}
			}
		}
	}
	return n
}

// Utilization returns BusyFUs / (PEs × II), the hardware view of
// U = |V_D| / |V_H^F|.
func (cfg *Config) Utilization() float64 {
	total := cfg.Fabric.NumPEs() * cfg.II
	if total == 0 {
		return 0
	}
	return float64(cfg.BusyFUs()) / float64(total)
}
