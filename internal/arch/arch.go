// Package arch models the target CGRA of §I/§VI: a c×c array of
// processing elements (PEs) in a 2-D mesh. Each PE contains an ALU, a
// register file with four registers and two read / two write ports, a
// crossbar switch connecting neighbor inputs, the ALU, and the register
// file to the four directional output registers, a 32-entry configuration
// memory, and a 64-word data memory whose read/write ports feed and drain
// the computation (the paper adds the per-PE data memory to eliminate
// memory access bottlenecks).
//
// The package also defines the per-cycle instruction (configuration word)
// format that mappings compile to and the cycle-accurate simulator
// executes.
package arch

import (
	"fmt"

	"himap/internal/diag"
)

// Dir is a link direction. The first four (N/S/E/W) are the classic mesh
// directions; the remaining four are the diagonal links some fabrics add
// (see Topology). Fabrics with fewer links simply never emit the extra
// directions, so code sized for MaxDirs works for every topology.
type Dir uint8

// Link directions. North decreases the row index.
const (
	North Dir = iota
	South
	East
	West
	// NumDirs is the mesh direction count; kept for the many mesh-only
	// call sites (default fabrics never exceed it).
	NumDirs
	NorthEast Dir = iota - 1 // NumDirs shares the value of NorthEast's slot
	NorthWest
	SouthEast
	SouthWest
	// MaxDirs bounds the direction index across all topologies.
	MaxDirs
)

var dirNames = [...]string{"N", "S", "E", "W", "NE", "NW", "SE", "SW"}

// String returns the short direction name.
func (d Dir) String() string {
	if int(d) < len(dirNames) {
		return dirNames[d]
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Delta returns the (row, col) step of the direction.
func (d Dir) Delta() (dr, dc int) {
	switch d {
	case North:
		return -1, 0
	case South:
		return 1, 0
	case East:
		return 0, 1
	case West:
		return 0, -1
	case NorthEast:
		return -1, 1
	case NorthWest:
		return -1, -1
	case SouthEast:
		return 1, 1
	case SouthWest:
		return 1, -1
	}
	panic(fmt.Sprintf("arch: bad direction %d", d))
}

// Opposite returns the reverse direction.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	case NorthEast:
		return SouthWest
	case NorthWest:
		return SouthEast
	case SouthEast:
		return NorthWest
	case SouthWest:
		return NorthEast
	}
	panic(fmt.Sprintf("arch: bad direction %d", d))
}

// CGRA describes a target array instance.
type CGRA struct {
	Rows, Cols   int
	NumRegs      int     // registers per PE register file
	RFReadPorts  int     // register-file read ports per cycle
	RFWritePorts int     // register-file write ports per cycle
	ConfigDepth  int     // configuration-memory entries per PE
	DataMemWords int     // per-PE data memory capacity
	ClockMHz     float64 // maximum clock frequency
}

// Default returns the evaluation architecture of §VI for a rows×cols
// array: 4 registers (2r/2w), 32 configuration entries, 64 data words,
// 510 MHz.
func Default(rows, cols int) CGRA {
	return CGRA{
		Rows: rows, Cols: cols,
		NumRegs:      4,
		RFReadPorts:  2,
		RFWritePorts: 2,
		ConfigDepth:  32,
		DataMemWords: 64,
		ClockMHz:     510,
	}
}

// NumPEs returns the PE count.
func (c CGRA) NumPEs() int { return c.Rows * c.Cols }

// InBounds reports whether (r, cc) is a valid PE coordinate.
func (c CGRA) InBounds(r, cc int) bool {
	return r >= 0 && r < c.Rows && cc >= 0 && cc < c.Cols
}

// Neighbor returns the PE coordinate in direction d from (r, cc) and
// whether it exists.
func (c CGRA) Neighbor(r, cc int, d Dir) (nr, nc int, ok bool) {
	dr, dc := d.Delta()
	nr, nc = r+dr, cc+dc
	return nr, nc, c.InBounds(nr, nc)
}

// Validate checks the architecture parameters.
func (c CGRA) Validate() error {
	switch {
	case c.Rows < 1 || c.Cols < 1:
		return fmt.Errorf("arch: array %dx%d: %w", c.Rows, c.Cols, diag.ErrConfigInvalid)
	case c.NumRegs < 1:
		return fmt.Errorf("arch: %d registers: %w", c.NumRegs, diag.ErrConfigInvalid)
	case c.RFReadPorts < 1 || c.RFWritePorts < 1:
		return fmt.Errorf("arch: RF ports %dr/%dw: %w", c.RFReadPorts, c.RFWritePorts, diag.ErrConfigInvalid)
	case c.ConfigDepth < 1:
		return fmt.Errorf("arch: config depth %d: %w", c.ConfigDepth, diag.ErrConfigInvalid)
	case c.ClockMHz <= 0:
		return fmt.Errorf("arch: clock %v MHz: %w", c.ClockMHz, diag.ErrConfigInvalid)
	}
	return nil
}

// String renders the array size, e.g. "8x8".
func (c CGRA) String() string { return fmt.Sprintf("%dx%d", c.Rows, c.Cols) }
