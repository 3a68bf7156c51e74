package arch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"himap/internal/ir"
)

// reflectJSON is the oracle of AppendJSON: encoding/json's own rendering
// of the configuration, through the struct ReadJSON decodes into. It
// lives in the test file only — product code has one rendering.
func reflectJSON(cfg *Config) ([]byte, error) {
	return json.Marshal(configJSON{
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

// checkAppendJSON holds AppendJSON to the oracle: equal bytes (after an
// untouched prefix), or an error exactly when the oracle has one.
func checkAppendJSON(t *testing.T, cfg *Config) []byte {
	t.Helper()
	want, werr := reflectJSON(cfg)
	const prefix = "kept:"
	got, gerr := cfg.AppendJSON([]byte(prefix))
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("AppendJSON error %v, encoding/json error %v", gerr, werr)
	}
	if werr != nil {
		return nil
	}
	if !bytes.HasPrefix(got, []byte(prefix)) {
		t.Fatalf("AppendJSON overwrote dst: %.40q", got)
	}
	got = got[len(prefix):]
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-60, 0)
		t.Fatalf("AppendJSON differs from encoding/json at byte %d:\n got …%.160q\nwant …%.160q", i, got[lo:], want[lo:])
	}
	return got
}

// TestAppendJSONMatchesEncodingJSON runs the differential check over the
// hand-built samples the other JSON tests use, every fabric axis, and
// the nil/empty/populated forms of each slice.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	cfgs := map[string]*Config{
		"sample":  jsonSample(),
		"golden":  jsonSampleOn(Fabric{CGRA: Default(2, 3), Topology: TopoTorus, Mem: MemBoundary, Bandwidth: BWBus, Cost: CostLowPower}),
		"diag":    jsonSampleOn(Fabric{CGRA: Default(3, 2), Topology: TopoMeshDiag, Bandwidth: BWNarrowRF, Cost: CostHighPerf}),
		"nops":    NewConfig(DefaultFabric(1, 1), 1),
		"noslots": {Fabric: DefaultFabric(1, 1), II: 1},
		"norows":  {Fabric: Fabric{}, II: 0, Slots: [][][]Instr{}},
	}
	esc := jsonSample()
	in := esc.At(1, 1, 1)
	in.Comment = "a<b>&c \"q\" \\ \x01\x7f \xff\xfe \u2028\u2029 é"
	in.MemWrite = MemOp{Active: true, Src: FromConst(math.MinInt64), Tag: "<T>@-1"}
	in.RegWr = []RegWrite{}
	in.SrcA = FromConst(math.MaxInt64)
	esc.Loads = []IOSpec{{Tensor: "\t", Index: nil}, {Tensor: "&", Index: []int{}}, {R: -1, C: -2, Slot: -3, Phase: -4, Index: []int{-5, 6}}}
	esc.Stores = []IOSpec{}
	for _, special := range []string{"<", ">", "&", `"`, `\\`, "\x1f", "\x7f", "\x80", "\u2028"} {
		esc.Stores = append(esc.Stores, IOSpec{Tensor: special}) // each alone: no other character asks for the slow path
	}
	cfgs["escapes"] = esc
	clock := jsonSample()
	clock.Fabric.ClockMHz = 1e-7
	cfgs["small clock"] = clock
	nan := jsonSample()
	nan.Fabric.ClockMHz = math.NaN()
	cfgs["NaN clock"] = nan

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) { checkAppendJSON(t, cfg) })
	}
}

// TestWriteJSONIsIndentOfAppendJSON pins the relation between the two
// renderings: the file is the wire form indented by one space, plus a
// newline — so compacting a saved file gives the served "config" member.
func TestWriteJSONIsIndentOfAppendJSON(t *testing.T) {
	cfg := jsonSample()
	compact, err := cfg.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Indent(&want, compact, "", " "); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	var file bytes.Buffer
	if err := cfg.WriteJSON(&file); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file.Bytes(), want.Bytes()) {
		t.Errorf("WriteJSON is not json.Indent(AppendJSON) + newline:\n%s", file.Bytes())
	}
	var back bytes.Buffer
	if err := json.Compact(&back, file.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), compact) {
		t.Error("compacting the file does not give AppendJSON's bytes back")
	}
}

// fuzzSrc deals values out of the fuzzer's bytes; an exhausted source
// deals zeros, so every input builds some configuration.
type fuzzSrc struct{ b []byte }

func (s *fuzzSrc) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// int deals a small signed value most of the time and a full 64-bit one
// otherwise.
func (s *fuzzSrc) int() int64 {
	switch c := s.byte(); {
	case c < 200:
		return int64(c%16) - 4
	default:
		var w [8]byte
		for i := range w {
			w[i] = s.byte()
		}
		return int64(binary.LittleEndian.Uint64(w[:]))
	}
}

// str deals up to 11 raw bytes: whatever the fuzzer put there, invalid
// UTF-8 and control bytes included.
func (s *fuzzSrc) str() string {
	n := min(int(s.byte())%12, len(s.b))
	out := string(s.b[:n])
	s.b = s.b[n:]
	return out
}

// slice deals a nil, an empty or a populated (1–3 element) slice.
func fuzzSlice[T any](s *fuzzSrc, elem func() T) []T {
	switch c := s.byte() % 5; c {
	case 0:
		return nil
	case 1:
		return []T{}
	default:
		out := make([]T, c-1)
		for i := range out {
			out[i] = elem()
		}
		return out
	}
}

func (s *fuzzSrc) operand() Operand {
	return Operand{Kind: OperandKind(s.byte() % 8), Dir: Dir(s.byte() % 9), Reg: int(s.int()), Const: s.int()}
}

func (s *fuzzSrc) memOp() MemOp {
	return MemOp{Active: s.byte()%2 == 1, Src: s.operand(), Tag: s.str()}
}

func (s *fuzzSrc) ioSpec() IOSpec {
	return IOSpec{R: int(s.int()), C: int(s.int()), Slot: int(s.int()), Phase: int(s.int()), Tensor: s.str(),
		Index: fuzzSlice(s, func() int { return int(s.int()) })}
}

func (s *fuzzSrc) config() *Config {
	fab := Fabric{
		CGRA:      Default(1+int(s.byte()%2), 1+int(s.byte()%2)),
		Topology:  Topology(s.byte() % 4), // one past the named values: String() renders "Topology(3)"
		Mem:       MemPolicy(s.byte() % 3),
		Bandwidth: BandwidthClass(s.byte() % 4),
		Cost:      CostClass(s.byte() % 3),
	}
	cfg := &Config{Fabric: fab, II: 1 + int(s.byte()%2)}
	if s.byte()%8 != 7 { // otherwise Slots stays nil
		cfg.Slots = make([][][]Instr, fab.Rows)
		for r := range cfg.Slots {
			cfg.Slots[r] = make([][]Instr, fab.Cols)
			for c := range cfg.Slots[r] {
				stream := make([]Instr, cfg.II)
				for t := range stream {
					in := &stream[t]
					in.Op = ir.OpKind(s.byte() % 16)
					in.SrcA, in.SrcB = s.operand(), s.operand()
					in.OutSel[s.byte()%byte(MaxDirs)] = s.operand()
					in.RegWr = fuzzSlice(s, func() RegWrite { return RegWrite{Reg: int(s.int()), Src: s.operand()} })
					in.MemRead, in.MemWrite = s.memOp(), s.memOp()
					in.Comment = s.str()
				}
				cfg.Slots[r][c] = stream
			}
		}
	}
	cfg.Loads = fuzzSlice(s, s.ioSpec)
	cfg.Stores = fuzzSlice(s, s.ioSpec)
	return cfg
}

// FuzzConfigAppendJSON assembles a configuration from the fuzzer's bytes
// — strings with the characters encoding/json escapes, control bytes,
// invalid UTF-8 and U+2028; negative and 64-bit constants; every slice
// nil, empty and populated — and holds AppendJSON to encoding/json's
// rendering of it. A configuration that validates must also survive
// WriteJSON → ReadJSON → WriteJSON unchanged.
func FuzzConfigAppendJSON(f *testing.F) {
	// A 1x1, II=1 configuration in fuzzSrc's byte order with the given
	// strings as its MemRead tag, MemWrite tag, comment, and the tensor
	// names of one load and one store.
	seed := func(readTag, writeTag, comment, load, store string) []byte {
		str := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
		b := make([]byte, 8+1+4+4+1+4+1) // fabric, II, slots; op, SrcA, SrcB, one OutSel, nil RegWr
		for _, tag := range []string{readTag, writeTag} {
			b = append(append(b, 0, 0, 0, 0, 0), str(tag)...) // inactive, zero operand
		}
		b = append(b, str(comment)...)
		b = append(append(append(b, 2, 0, 0, 0, 0), str(load)...), 0)     // one load, nil Index
		return append(append(append(b, 2, 0, 0, 0, 0), str(store)...), 1) // one store, empty Index
	}
	f.Add(seed("A@0,1", "", "n998", "A", "C"))
	// Each character the fast path must refuse, alone in a string, so a
	// path that lets one through differs from encoding/json on a seed.
	for _, special := range []string{"<", ">", "&", `"`, `\`, "\x00", "\x1f", "\x7f", "\x80", "\xff\xfe", "\u2028", "\u2029", "é"} {
		f.Add(seed(special, "w", "c", "L", "S"))
		f.Add(seed("r", "a"+special+"b", special+special, "L"+special, special+"S"))
	}
	// Raw inputs: 64-bit constants, populated RegWr, out-of-range enums.
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02\x01\x03\x02\x01\x01\x02\x04\xc8\xff\xff\xff\xff\xff\xff\xff\x7f\x06\x08\xc8\x00\x00\x00\x00\x00\x00\x00\x80\x00\x02\x01\x00\x00\x00\x00\x00\x00\x06\x01\x7f\xff\xfe\xc3\x28\x01\x00\x00\x00\x00\x00\x07\xe2\x80\xa8\xe2\x80\xa9\xc3\x00"))
	f.Add([]byte("\x01\x00\x03\x02\x03\x02\x00\x00\x03\x00\x00\x00\x00\x00\x02\x09\x01\x02\x03\x04\x05\x06\x07\x08\x09\x04\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10"))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := (&fuzzSrc{b: data}).config()
		// Validate takes the slot grid's shape for granted (ReadJSON checks
		// it first), so a configuration without slots stops here.
		if checkAppendJSON(t, cfg) == nil || cfg.Slots == nil || cfg.Fabric.Validate() != nil || cfg.Validate() != nil {
			return
		}
		var file bytes.Buffer
		if err := cfg.WriteJSON(&file); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatalf("a valid configuration does not read back: %v", err)
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		// encoding/json writes an invalid byte as the escape \ufffd and
		// reads it back as the rune, which it then writes literally; only
		// files without that escape are held to byte equality.
		if !bytes.Contains(file.Bytes(), []byte(`\ufffd`)) && !bytes.Equal(again.Bytes(), file.Bytes()) {
			t.Fatalf("WriteJSON → ReadJSON → WriteJSON changed the file:\n%s\n%s", file.Bytes(), again.Bytes())
		}
	})
}
