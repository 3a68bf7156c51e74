package arch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"himap/internal/diag"
	"io"
	"strconv"
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

// AppendJSON appends the compact rendering of the configuration to dst,
// byte for byte what json.Marshal makes of a configJSON holding the same
// values (FuzzConfigAppendJSON holds the two together). It is the one
// rendering of a mapping: the wire form is exactly these bytes
// (serve.EncodeResponse splices them into the response) and the file
// form is their indentation (WriteJSON), so the two cannot drift. The
// field names, order and omissions below are configJSON's, which
// ReadJSON decodes; numbers go through strconv, strings through
// appendString, and the one float through encoding/json itself.
func (cfg *Config) AppendJSON(dst []byte) ([]byte, error) {
	f := cfg.Fabric
	clock, err := json.Marshal(f.ClockMHz)
	if err != nil {
		return dst, err
	}
	dst = appendInt(append(dst, `{"version":`...), configFormatVersion)
	dst = appendInt(append(dst, `,"cgra":{"Rows":`...), f.Rows)
	dst = appendInt(append(dst, `,"Cols":`...), f.Cols)
	dst = appendInt(append(dst, `,"NumRegs":`...), f.NumRegs)
	dst = appendInt(append(dst, `,"RFReadPorts":`...), f.RFReadPorts)
	dst = appendInt(append(dst, `,"RFWritePorts":`...), f.RFWritePorts)
	dst = appendInt(append(dst, `,"ConfigDepth":`...), f.ConfigDepth)
	dst = appendInt(append(dst, `,"DataMemWords":`...), f.DataMemWords)
	dst = append(append(append(dst, `,"ClockMHz":`...), clock...), '}')
	dst = appendOptString(dst, `,"topology":`, f.Topology.String())
	dst = appendOptString(dst, `,"mem_pes":`, f.Mem.String())
	if caps := capsGrid(f); len(caps) > 0 {
		dst = append(dst, `,"caps":`...)
		for i, row := range caps {
			dst = appendString(append(dst, sep(i)), row)
		}
		dst = append(dst, ']')
	}
	dst = appendOptString(dst, `,"bandwidth":`, f.Bandwidth.String())
	dst = appendOptString(dst, `,"cost_class":`, f.Cost.String())
	dst = appendInt(append(dst, `,"ii":`...), cfg.II)

	dst = append(dst, `,"slots":`...)
	dst = appendSlice(dst, cfg.Slots, func(dst []byte, row *[][]Instr) []byte {
		return appendSlice(dst, *row, func(dst []byte, stream *[]Instr) []byte {
			return appendSlice(dst, *stream, appendInstr)
		})
	})
	if len(cfg.Loads) > 0 {
		dst = appendSlice(append(dst, `,"loads":`...), cfg.Loads, appendIOSpec)
	}
	if len(cfg.Stores) > 0 {
		dst = appendSlice(append(dst, `,"stores":`...), cfg.Stores, appendIOSpec)
	}
	return append(dst, '}'), nil
}

// sep is the byte before element i of an array: the opening bracket or
// the comma.
func sep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// appendSlice renders a slice as encoding/json does: null when nil,
// otherwise the elements in brackets.
func appendSlice[T any](dst []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	if len(s) == 0 {
		return append(dst, "[]"...)
	}
	for i := range s {
		dst = elem(append(dst, sep(i)), &s[i])
	}
	return append(dst, ']')
}

func appendInt[T ~int | ~int64 | ~uint8](dst []byte, v T) []byte {
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendString renders s as a JSON string. A string of printable ASCII
// without the five characters encoding/json escapes ('"', '\\', and with
// HTML escaping on '<', '>', '&') is its own rendering and is appended
// between quotes; any other string — control bytes, DEL, anything
// outside ASCII (so invalid UTF-8 and U+2028/9 too) — is handed to
// encoding/json, so the escaping is its by construction.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendOptString renders an omitempty string member, key included.
func appendOptString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

func appendOperand(dst []byte, o *Operand) []byte {
	dst = appendInt(append(dst, `{"Kind":`...), o.Kind)
	dst = appendInt(append(dst, `,"Dir":`...), o.Dir)
	dst = appendInt(append(dst, `,"Reg":`...), o.Reg)
	dst = appendInt(append(dst, `,"Const":`...), o.Const)
	return append(dst, '}')
}

func appendMemOp(dst []byte, m *MemOp) []byte {
	dst = strconv.AppendBool(append(dst, `{"Active":`...), m.Active)
	dst = appendOperand(append(dst, `,"Src":`...), &m.Src)
	dst = appendString(append(dst, `,"Tag":`...), m.Tag)
	return append(dst, '}')
}

func appendInstr(dst []byte, in *Instr) []byte {
	dst = appendInt(append(dst, `{"Op":`...), in.Op)
	dst = appendOperand(append(dst, `,"SrcA":`...), &in.SrcA)
	dst = appendOperand(append(dst, `,"SrcB":`...), &in.SrcB)
	dst = append(dst, `,"OutSel":`...)
	for d := range in.OutSel {
		dst = appendOperand(append(dst, sep(d)), &in.OutSel[d])
	}
	dst = append(dst, `],"RegWr":`...)
	dst = appendSlice(dst, in.RegWr, func(dst []byte, w *RegWrite) []byte {
		dst = appendInt(append(dst, `{"Reg":`...), w.Reg)
		return append(appendOperand(append(dst, `,"Src":`...), &w.Src), '}')
	})
	dst = appendMemOp(append(dst, `,"MemRead":`...), &in.MemRead)
	dst = appendMemOp(append(dst, `,"MemWrite":`...), &in.MemWrite)
	dst = appendString(append(dst, `,"Comment":`...), in.Comment)
	return append(dst, '}')
}

func appendIOSpec(dst []byte, io *IOSpec) []byte {
	dst = appendInt(append(dst, `{"R":`...), io.R)
	dst = appendInt(append(dst, `,"C":`...), io.C)
	dst = appendInt(append(dst, `,"Slot":`...), io.Slot)
	dst = appendInt(append(dst, `,"Phase":`...), io.Phase)
	dst = appendString(append(dst, `,"Tensor":`...), io.Tensor)
	dst = append(dst, `,"Index":`...)
	dst = appendSlice(dst, io.Index, func(dst []byte, v *int) []byte { return appendInt(dst, *v) })
	return append(dst, '}')
}

// JSONSizeHint estimates len(AppendJSON(nil)) from the parts, so a caller
// can allocate the destination once: every instruction at the length it
// has with one-digit numbers plus a few bytes of slack, the strings and
// the variable-length members at their own length. An estimate that
// falls short costs an append growth, nothing else.
func (cfg *Config) JSONSizeHint() int {
	const head, instr, regWr, ioSpec, index = 512, 600, 64, 80, 4
	n := head
	for _, row := range cfg.Slots {
		for _, stream := range row {
			n += len(stream) * instr
			for i := range stream {
				in := &stream[i]
				n += len(in.RegWr)*regWr + len(in.MemRead.Tag) + len(in.MemWrite.Tag) + len(in.Comment)
			}
		}
	}
	for _, ios := range [2][]IOSpec{cfg.Loads, cfg.Stores} {
		for i := range ios {
			n += ioSpec + len(ios[i].Tensor) + len(ios[i].Index)*index
		}
	}
	return n
}

// WriteJSON serializes the configuration in its file form: AppendJSON's
// bytes indented by one space per level, and a trailing newline.
func (cfg *Config) WriteJSON(w io.Writer) error {
	compact, err := cfg.AppendJSON(make([]byte, 0, cfg.JSONSizeHint()))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Grow(len(compact) * 5 / 2) // the indented form of a mapping is 2.2x its compact form
	if err := json.Indent(&buf, compact, "", " "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
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
