package arch

import (
	"encoding/json"
	"fmt"
	"himap/internal/diag"
	"io"
	"strings"
)

// configJSON is the serialized form of a mapping: the architecture, the
// schedule, and the memory correlation metadata, with a format version.
// ReadJSON accepts exactly configFormatVersion; any other version is a
// typed ErrConfigInvalid rejection.
type configJSON struct {
	Version  int    `json:"version"`
	CGRA     CGRA   `json:"cgra"`
	Topology string `json:"topology,omitempty"`
	MemPEs   string `json:"mem_pes,omitempty"`
	// Caps renders the per-PE capability grid, one string per row,
	// 'M' for memory-capable PEs and 'C' for compute-only ones. It is
	// derived from mem_pes and validated against it on decode.
	Caps      []string    `json:"caps,omitempty"`
	Bandwidth string      `json:"bandwidth,omitempty"`
	CostClass string      `json:"cost_class,omitempty"`
	II        int         `json:"ii"`
	Slots     [][][]Instr `json:"slots"`
	Loads     []IOSpec    `json:"loads,omitempty"`
	Stores    []IOSpec    `json:"stores,omitempty"`
}

// configFormatVersion is bumped on breaking schema changes.
const configFormatVersion = 3

// maxConfigDim bounds decoded array dimensions and register counts so a
// hostile or corrupt file cannot make the decoder allocate gigabytes
// (capsGrid and validation materialize per-PE state) before validation
// rejects it. Real fabrics are orders of magnitude below this.
const maxConfigDim = 4096

func capsGrid(f Fabric) []string {
	out := make([]string, f.Rows)
	var b strings.Builder
	for r := 0; r < f.Rows; r++ {
		b.Reset()
		for c := 0; c < f.Cols; c++ {
			if f.MemCapable(r, c) {
				b.WriteByte('M')
			} else {
				b.WriteByte('C')
			}
		}
		out[r] = b.String()
	}
	return out
}

// WriteJSON serializes the configuration.
func (cfg *Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(configJSON{
		Version:   configFormatVersion,
		CGRA:      cfg.Fabric.CGRA,
		Topology:  cfg.Fabric.Topology.String(),
		MemPEs:    cfg.Fabric.Mem.String(),
		Caps:      capsGrid(cfg.Fabric),
		Bandwidth: cfg.Fabric.Bandwidth.String(),
		CostClass: cfg.Fabric.Cost.String(),
		II:        cfg.II,
		Slots:     cfg.Slots,
		Loads:     cfg.Loads,
		Stores:    cfg.Stores,
	})
}

// ReadJSON deserializes a configuration and validates it. Decoding is
// strict: unknown fields are an error, not silently dropped.
func ReadJSON(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cj configJSON
	if err := dec.Decode(&cj); err != nil {
		return nil, fmt.Errorf("arch: decoding configuration: %v: %w", err, diag.ErrConfigInvalid)
	}
	if cj.Version != configFormatVersion {
		return nil, fmt.Errorf("arch: configuration format version %d, want %d: %w", cj.Version, configFormatVersion, diag.ErrConfigInvalid)
	}
	if cj.CGRA.Rows > maxConfigDim || cj.CGRA.Cols > maxConfigDim {
		return nil, fmt.Errorf("arch: array %dx%d exceeds the %d-per-side decode bound: %w", cj.CGRA.Rows, cj.CGRA.Cols, maxConfigDim, diag.ErrConfigInvalid)
	}
	if cj.CGRA.NumRegs > maxConfigDim || cj.CGRA.ConfigDepth > maxConfigDim {
		return nil, fmt.Errorf("arch: %d registers / depth %d exceed the %d decode bound: %w", cj.CGRA.NumRegs, cj.CGRA.ConfigDepth, maxConfigDim, diag.ErrConfigInvalid)
	}
	if cj.II > maxConfigDim {
		return nil, fmt.Errorf("arch: II = %d exceeds the %d decode bound: %w", cj.II, maxConfigDim, diag.ErrConfigInvalid)
	}
	topo, err := ParseTopology(cj.Topology)
	if err != nil {
		return nil, err
	}
	mem, err := ParseMemPolicy(cj.MemPEs)
	if err != nil {
		return nil, err
	}
	bw, err := ParseBandwidth(cj.Bandwidth)
	if err != nil {
		return nil, err
	}
	cost, err := ParseCostClass(cj.CostClass)
	if err != nil {
		return nil, err
	}
	fab := Fabric{CGRA: cj.CGRA, Topology: topo, Mem: mem, Bandwidth: bw, Cost: cost}
	if err := fab.Validate(); err != nil {
		return nil, err
	}
	if cj.Caps != nil {
		want := capsGrid(fab)
		if len(cj.Caps) != len(want) {
			return nil, fmt.Errorf("arch: caps grid has %d rows for a %d-row array: %w", len(cj.Caps), fab.Rows, diag.ErrConfigInvalid)
		}
		for r := range want {
			if cj.Caps[r] != want[r] {
				return nil, fmt.Errorf("arch: caps row %d is %q, inconsistent with mem_pes=%s (%q): %w",
					r, cj.Caps[r], mem, want[r], diag.ErrConfigInvalid)
			}
		}
	}
	if cj.II < 1 {
		return nil, fmt.Errorf("arch: II = %d: %w", cj.II, diag.ErrConfigInvalid)
	}
	if len(cj.Slots) != fab.Rows {
		return nil, fmt.Errorf("arch: %d slot rows for a %d-row array: %w", len(cj.Slots), fab.Rows, diag.ErrConfigInvalid)
	}
	for r, row := range cj.Slots {
		if len(row) != fab.Cols {
			return nil, fmt.Errorf("arch: row %d has %d columns, want %d: %w", r, len(row), fab.Cols, diag.ErrConfigInvalid)
		}
		for c, stream := range row {
			if len(stream) != cj.II {
				return nil, fmt.Errorf("arch: PE(%d,%d) stream length %d, want II %d: %w", r, c, len(stream), cj.II, diag.ErrConfigInvalid)
			}
		}
	}
	cfg := &Config{
		Fabric: fab,
		II:     cj.II,
		Slots:  cj.Slots,
		Loads:  cj.Loads,
		Stores: cj.Stores,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}
