package himap_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"himap"
	"himap/internal/arch"
	"himap/internal/serve"
)

// The two renderings of a result — arch.Config.AppendJSON and
// serve.EncodeResponse — append their bytes by hand. Their oracle is
// what they replaced, kept here and nowhere in product code:
// encoding/json's reflect walk over a struct with the configuration
// file's members, and json.Marshal of a serve.CompileResponse that holds
// the configuration as a RawMessage.

// reflectConfig mirrors the configuration file's members (arch's
// configJSON), so this oracle also pins their names and order from
// outside the package.
type reflectConfig struct {
	Version   int              `json:"version"`
	CGRA      arch.CGRA        `json:"cgra"`
	Topology  string           `json:"topology,omitempty"`
	MemPEs    string           `json:"mem_pes,omitempty"`
	Caps      []string         `json:"caps,omitempty"`
	Bandwidth string           `json:"bandwidth,omitempty"`
	CostClass string           `json:"cost_class,omitempty"`
	II        int              `json:"ii"`
	Slots     [][][]arch.Instr `json:"slots"`
	Loads     []arch.IOSpec    `json:"loads,omitempty"`
	Stores    []arch.IOSpec    `json:"stores,omitempty"`
}

func reflectConfigJSON(t *testing.T, cfg *himap.Config) []byte {
	t.Helper()
	f := cfg.Fabric
	caps := make([]string, f.Rows)
	for r := range caps {
		row := make([]byte, f.Cols)
		for c := range row {
			row[c] = 'C'
			if f.MemCapable(r, c) {
				row[c] = 'M'
			}
		}
		caps[r] = string(row)
	}
	b, err := json.Marshal(reflectConfig{
		Version: 3, CGRA: f.CGRA,
		Topology: f.Topology.String(), MemPEs: f.Mem.String(), Caps: caps,
		Bandwidth: f.Bandwidth.String(), CostClass: f.Cost.String(),
		II: cfg.II, Slots: cfg.Slots, Loads: cfg.Loads, Stores: cfg.Stores,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reflectResponse is serve.EncodeResponse as it was before it appended:
// every member through json.Marshal, the configuration re-scanned as a
// RawMessage.
func reflectResponse(t *testing.T, res *himap.Result, cfgJSON []byte) []byte {
	t.Helper()
	bs, err := himap.EncodeBitstream(res.Config)
	if err != nil {
		t.Fatal(err)
	}
	resp := serve.CompileResponse{
		SchemaVersion: serve.SchemaVersion,
		Kernel:        res.Kernel.Name,
		Fabric:        res.Fabric.String(),
		Mapper:        res.Backend,
		Block:         res.Block,
		II:            res.Config.II,
		UniqueIters:   res.UniqueIters,
		Attempts:      res.Stats.Attempts,
		Utilization:   res.Utilization,
		Config:        cfgJSON,
		Bitstream:     serve.BitstreamBytes(bs),
	}
	if res.Optimality != nil {
		resp.Optimality = &serve.OptimalityWire{
			ProvedMinimal: res.Optimality.ProvedMinimal,
			IILowerBound:  res.Optimality.IILowerBound,
			Certificate:   string(res.Optimality.Certificate),
			Explored:      res.Optimality.Explored,
			Horizon:       res.Optimality.Horizon,
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// checkRenderings holds both renderings of one result to the oracle,
// byte for byte. TestDefaultFabricBitIdentical calls it on every row of
// goldenMappings that compiles: three mappers, Workers 1 and 4, the
// 32x32 and 64x64 fabrics, and the exact mapper's optimality block.
func checkRenderings(t *testing.T, res *himap.Result) {
	t.Helper()
	wantCfg := reflectConfigJSON(t, res.Config)
	gotCfg, err := res.Config.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCfg, wantCfg) {
		t.Errorf("AppendJSON differs from encoding/json's rendering (%d vs %d bytes)", len(gotCfg), len(wantCfg))
	}
	want := reflectResponse(t, res, wantCfg)
	got, err := serve.EncodeResponse(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("EncodeResponse differs from json.Marshal(CompileResponse) at byte %d of %d/%d:\n got …%.120q\nwant …%.120q",
			i, len(got), len(want), got[max(i-40, 0):], want[max(i-40, 0):])
	}
	if res.Backend == string(himap.MapperExact) && !strings.Contains(string(got[:min(len(got), 600)]), `"optimality":{`) {
		t.Errorf("exact-mapper response carries no optimality block: %.300s", got)
	}
}
