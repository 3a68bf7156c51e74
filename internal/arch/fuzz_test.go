package arch

import (
	"bytes"
	"errors"
	"testing"

	"himap/internal/diag"
)

// validConfigJSON serializes a small hand-built configuration — the
// round-trippable corpus anchor for FuzzDecodeConfig.
func validConfigJSON(t interface{ Fatalf(string, ...any) }) []byte {
	fab := DefaultFabric(2, 2)
	slots := make([][][]Instr, fab.Rows)
	for r := range slots {
		slots[r] = make([][]Instr, fab.Cols)
		for c := range slots[r] {
			slots[r][c] = make([]Instr, 1) // II = 1, all nops
		}
	}
	cfg := &Config{Fabric: fab, II: 1, Slots: slots}
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatalf("seed config does not serialize: %v", err)
	}
	return buf.Bytes()
}

// FuzzDecodeConfig drives ReadJSON with arbitrary bytes and pins its
// hardening contract:
//
//   - it never panics, whatever the input;
//   - every rejection is typed (errors.Is ErrConfigInvalid), so callers
//     dispatch on the class rather than on message text;
//   - a rejection never leaks a partially constructed *Config;
//   - an accepted configuration is internally consistent (Validate
//     passes) and survives an encode → decode round trip.
func FuzzDecodeConfig(f *testing.F) {
	f.Add(validConfigJSON(f))
	f.Add([]byte(`{"version": 1,`))
	f.Add([]byte(`{"version": 99}`))
	f.Add([]byte(`{"version": 3, "bogus": 0}`))
	f.Add([]byte(`{"version": 3, "cgra": {"Rows": 1000000000, "Cols": 1000000000}, "caps": ["M"]}`))
	f.Add([]byte(`{"version": 3, "cgra": {"Rows": 1, "Cols": 1}, "topology": "hypercube"}`))
	f.Add([]byte(`{"version": 2, "cgra": {"Rows": 1, "Cols": 1, "NumRegs": 4, "RFReadPorts": 2, "RFWritePorts": 2, "ConfigDepth": 32, "ClockMHz": 510}, "ii": 1, "slots": [[[{}]]]}`))
	f.Add([]byte(`{"version": 3, "bandwidth": "bus", "cost_class": "low-power", "cgra": {"Rows": 1, "Cols": 1, "NumRegs": 4, "RFReadPorts": 2, "RFWritePorts": 2, "ConfigDepth": 32, "ClockMHz": 510}, "ii": 1, "slots": [[[{}]]]}`))
	f.Add([]byte(`{"version": 2, "bandwidth": "double"}`))
	f.Add([]byte(`{"version": 3, "bandwidth": "quad"}`))
	f.Add([]byte(`{"version": 3, "cost_class": "military"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			if cfg != nil {
				t.Fatalf("rejection leaked a partial config: %v", err)
			}
			if !errors.Is(err, diag.ErrConfigInvalid) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if cfg == nil {
			t.Fatal("nil config without an error")
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("accepted config fails Validate: %v", verr)
		}
		var buf bytes.Buffer
		if werr := cfg.WriteJSON(&buf); werr != nil {
			t.Fatalf("accepted config does not re-encode: %v", werr)
		}
		if _, rerr := ReadJSON(&buf); rerr != nil {
			t.Fatalf("re-encoded config does not decode: %v", rerr)
		}
	})
}
