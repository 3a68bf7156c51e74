package arch

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"

	"himap/internal/diag"
	"himap/internal/ir"
)

func jsonSample() *Config { return jsonSampleOn(DefaultFabric(2, 2)) }

func jsonSampleOn(fab Fabric) *Config {
	cfg := NewConfig(fab, 2)
	in := cfg.At(0, 0, 0)
	in.Op = ir.OpMul
	in.SrcA = FromIn(West)
	in.SrcB = FromConst(3)
	in.OutSel[East] = FromALU()
	in.RegWr = []RegWrite{{Reg: 1, Src: FromALU()}}
	in.MemRead = MemOp{Active: true, Tag: "A@0,0"}
	cfg.Loads = []IOSpec{{R: 0, C: 0, Slot: 0, Phase: -1, Tensor: "A", Index: []int{0, 0}}}
	cfg.Stores = []IOSpec{{R: 1, C: 0, Slot: 1, Tensor: "O", Index: []int{1}}}
	return cfg
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := jsonSample()
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.II != cfg.II || got.Fabric != cfg.Fabric {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.At(0, 0, 0).String() != cfg.At(0, 0, 0).String() {
		t.Errorf("slot mismatch: %q vs %q", got.At(0, 0, 0).String(), cfg.At(0, 0, 0).String())
	}
	if len(got.Loads) != 1 || got.Loads[0].Phase != -1 || len(got.Stores) != 1 {
		t.Errorf("metadata mismatch: %+v / %+v", got.Loads, got.Stores)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite internal/arch/testdata/config_v3.golden.json from the current encoder")

// TestConfigJSONGoldenV3 pins the one configuration file format byte
// for byte: a hand-built mapping on a non-default fabric (torus,
// boundary memory, bus bandwidth, low-power cost) encodes to the
// committed file, and the committed file survives ReadJSON → WriteJSON
// unchanged.
func TestConfigJSONGoldenV3(t *testing.T) {
	const path = "testdata/config_v3.golden.json"
	cfg := jsonSampleOn(Fabric{CGRA: Default(2, 3), Topology: TopoTorus, Mem: MemBoundary, Bandwidth: BWBus, Cost: CostLowPower})
	var enc bytes.Buffer
	if err := cfg.WriteJSON(&enc); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), want) {
		t.Errorf("WriteJSON drifted from %s:\n%s", path, enc.Bytes())
	}
	got, err := ReadJSON(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if got.Fabric != cfg.Fabric {
		t.Errorf("golden decoded as %+v, want %+v", got.Fabric, cfg.Fabric)
	}
	var again bytes.Buffer
	if err := got.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Errorf("ReadJSON → WriteJSON is not byte-identical to %s:\n%s", path, again.Bytes())
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version should fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":3,"cgra":{"Rows":2,"Cols":2,"NumRegs":4,"RFReadPorts":2,"RFWritePorts":2,"ConfigDepth":32,"DataMemWords":64,"ClockMHz":510},"ii":2,"slots":[]}`)); err == nil {
		t.Error("shape mismatch should fail")
	}
}

// TestConfigJSONFabricRoundTrip pins the version-2 schema: topology,
// memory policy, and the derived per-PE capability grid survive a
// write/read cycle byte for byte, for every topology × policy pair.
func TestConfigJSONFabricRoundTrip(t *testing.T) {
	for _, topo := range []Topology{TopoMesh, TopoTorus, TopoMeshDiag} {
		for _, mem := range []MemPolicy{MemAll, MemBoundary} {
			fab := Fabric{CGRA: Default(2, 3), Topology: topo, Mem: mem}
			cfg := NewConfig(fab, 1)
			in := cfg.At(0, 0, 0)
			in.Op = ir.OpAdd
			in.SrcA = FromConst(1)
			in.SrcB = FromConst(2)
			var buf bytes.Buffer
			if err := cfg.WriteJSON(&buf); err != nil {
				t.Fatalf("%s: %v", fab, err)
			}
			first := buf.String()
			got, err := ReadJSON(strings.NewReader(first))
			if err != nil {
				t.Fatalf("%s: %v", fab, err)
			}
			if got.Fabric != fab {
				t.Fatalf("fabric mismatch: wrote %+v, read %+v", fab, got.Fabric)
			}
			var buf2 bytes.Buffer
			if err := got.WriteJSON(&buf2); err != nil {
				t.Fatalf("%s: %v", fab, err)
			}
			if buf2.String() != first {
				t.Errorf("%s: re-encoding is not byte-identical", fab)
			}
		}
	}
}

// TestReadJSONStrict pins the strict-decode contract: unknown fields and
// capability grids inconsistent with the declared memory policy are
// errors, not silent drops.
func TestReadJSONStrict(t *testing.T) {
	var buf bytes.Buffer
	if err := jsonSample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Inject an unknown top-level field.
	s := strings.Replace(buf.String(), `"version"`, `"bogus_field": 1, "version"`, 1)
	if _, err := ReadJSON(strings.NewReader(s)); err == nil || !strings.Contains(err.Error(), "bogus_field") {
		t.Errorf("unknown field not rejected: %v", err)
	}
	// Corrupt the caps grid so it contradicts mem_pes.
	fab := Fabric{CGRA: Default(2, 3), Mem: MemBoundary}
	var buf2 bytes.Buffer
	if err := NewConfig(fab, 1).WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	s2 := strings.Replace(buf2.String(), `"MCM"`, `"MMM"`, 1)
	if s2 == buf2.String() {
		t.Fatal("caps row MCM not found in encoding")
	}
	if _, err := ReadJSON(strings.NewReader(s2)); err == nil || !strings.Contains(err.Error(), "caps") {
		t.Errorf("inconsistent caps grid not rejected: %v", err)
	}
}

// TestReadJSONVersion1 pins the single-version contract: a version-1
// file that is otherwise well formed (it decoded as mesh/all-mem while
// the compatibility window stood) is a typed rejection naming the
// version.
func TestReadJSONVersion1(t *testing.T) {
	v1 := `{"version":1,"cgra":{"Rows":1,"Cols":1,"NumRegs":4,"RFReadPorts":2,"RFWritePorts":2,"ConfigDepth":32,"DataMemWords":64,"ClockMHz":510},"ii":1,"slots":[[[{"Op":0}]]]}`
	cfg, err := ReadJSON(strings.NewReader(v1))
	if cfg != nil || !errors.Is(err, diag.ErrConfigInvalid) {
		t.Fatalf("version-1 file: got (%v, %v), want a typed ErrConfigInvalid rejection", cfg, err)
	}
	if !strings.Contains(err.Error(), "version 1, want 3") {
		t.Errorf("rejection %q does not name the version", err)
	}
}

// minimalJSON renders a 1x1 all-nop configuration with the given header
// fields spliced in after "version":, for the strict-decode table.
func minimalJSON(header string) string {
	return `{"version":` + header + `,"cgra":{"Rows":1,"Cols":1,"NumRegs":4,"RFReadPorts":2,"RFWritePorts":2,"ConfigDepth":32,"DataMemWords":64,"ClockMHz":510},"ii":1,"slots":[[[{"Op":0}]]]}`
}

// TestConfigJSONV3RoundTrip pins the version-3 schema: the bandwidth
// and cost-class axes survive a write/read cycle for every enum value,
// and the re-encoding is byte-identical.
func TestConfigJSONV3RoundTrip(t *testing.T) {
	for _, bw := range []BandwidthClass{BWUnit, BWDouble, BWBus, BWNarrowRF} {
		for _, cost := range []CostClass{CostBalanced, CostLowPower, CostHighPerf} {
			fab := Fabric{CGRA: Default(2, 3), Bandwidth: bw, Cost: cost}
			cfg := NewConfig(fab, 1)
			in := cfg.At(0, 0, 0)
			in.Op = ir.OpAdd
			in.SrcA = FromConst(1)
			in.SrcB = FromConst(2)
			var buf bytes.Buffer
			if err := cfg.WriteJSON(&buf); err != nil {
				t.Fatalf("%s: %v", fab, err)
			}
			first := buf.String()
			got, err := ReadJSON(strings.NewReader(first))
			if err != nil {
				t.Fatalf("%s: %v", fab, err)
			}
			if got.Fabric != fab {
				t.Fatalf("fabric mismatch: wrote %+v, read %+v", fab, got.Fabric)
			}
			var buf2 bytes.Buffer
			if err := got.WriteJSON(&buf2); err != nil {
				t.Fatalf("%s: %v", fab, err)
			}
			if buf2.String() != first {
				t.Errorf("%s: re-encoding is not byte-identical", fab)
			}
		}
	}
}

// TestReadJSONV3Rejections is the strict-decode table for the version
// and the resource/cost axes: unknown enum names and every version
// other than 3 — with or without the axes — are typed rejections.
func TestReadJSONV3Rejections(t *testing.T) {
	cases := []struct {
		name   string
		header string // splices after "version":
		ok     bool
	}{
		{"v3 bare", `3`, true},
		{"v3 explicit defaults", `3,"bandwidth":"unit","cost_class":"balanced"`, true},
		{"v3 bus low-power", `3,"bandwidth":"bus","cost_class":"low-power"`, true},
		{"v1 bare", `1`, false},
		{"v2 bare", `2`, false},
		{"v4 bare", `4`, false},
		{"unknown bandwidth", `3,"bandwidth":"quad"`, false},
		{"unknown cost class", `3,"cost_class":"military"`, false},
		{"v2 with bandwidth", `2,"bandwidth":"bus"`, false},
		{"v1 with cost class", `1,"cost_class":"low-power"`, false},
	}
	for _, tc := range cases {
		cfg, err := ReadJSON(strings.NewReader(minimalJSON(tc.header)))
		if tc.ok {
			if err != nil {
				t.Errorf("%s: unexpected rejection: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want typed rejection (decoded %+v)", tc.name, cfg.Fabric)
			continue
		}
		if !errors.Is(err, diag.ErrConfigInvalid) {
			t.Errorf("%s: rejection not typed ErrConfigInvalid: %v", tc.name, err)
		}
	}
}
