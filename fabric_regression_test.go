package himap_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"himap"
)

// goldenMappings pins exact mappings as SHA-256 fingerprints. A row is
// one compile request; a change that moves any hash changed a mapping.
// The fingerprint is built from the canonical instruction rendering
// (Instr.String), the II, and the load/store I/O specs — deliberately
// not the raw JSON bytes, so representation-only changes (e.g. widening
// OutSel for diagonal links) don't disturb it as long as the mapping
// itself is unchanged.
//
//   - "<kernel>": the default fabric (mesh topology, every PE
//     memory-capable) at 8x8, captured before the Fabric refactor.
//   - "<kernel>/<fabric>": constrained 8x8 fabrics whose compiles spend
//     several attempts and more than one negotiated-congestion round;
//     the test compiles each at Workers 1 and 4 (speculative attempts,
//     sharded scheme search), and both must reproduce the one hash.
//   - "scale/<kernel>/<size>/<topology>": 32x32 and 64x64 fabrics,
//     captured at the commit before the router's search window and the
//     dense DFG/ISDG tables landed — at 8x8 a window trims almost
//     nothing, so only these rows see a wrong one.
//   - "conventional/...", "exact/...": the flat mappers at 4x4 block 2.
var goldenMappings = map[string]string{
	"ADI":  "4be75e3ecacdf7c9bd77223743241a082b8469bde26367d7cf2ded54b323a0cc",
	"ATAX": "10c91fa59bf58021cd04346eb043291218cae9805275e1b04c163c79aafdd0b7",
	"BICG": "f989d64f152302206e1678d3e39301462654623fd4e270dd05722cf30c277452",
	"MVT":  "1b33b8638fc10c73bcc85ce86f4fa9b1416aff0f028ca85fef27014a1407253d",
	"GEMM": "e92f7854f63143875896692d070a6f34663eb9d2fff92dd61e79e827939b9eb1",
	"SYRK": "8d59d8f6d4454f1438d5e78570271cda6aab8333059082d344a7d94530102b8b",
	"FW":   "bb5b461d9ff1f8380f1ec0f63fcef4afb26a75cc2b32e9dd1ce076905967ac8a",
	"TTM":  "1bbfb68601054333cc6bb7c68a035f6c171aa1422678e47dacf1b4b3bc99dc88",

	"FW/diag":           "cf039db20317d7b72a9380f42cda8d6fb7b45604b064e10e2d640ec461450560",
	"FW/narrow-rf":      "ed686f886f520d70577405cf2f3b0e5dc8280d09e73ec2f8b09bc391eb93ff04",
	"FW/bus":            "error: himap: compilation of FW on 8x8/bw-bus failed after 42 attempts: stage route (FW on 8x8/bw-bus, attempt 1): routing congestion unresolved: class 3 (rep (0,0,3)): himap: no memory-read slot for boundary load n24[load ld.D0@(0,0,3)]: memory-port demand infeasible on fabric: routing congestion unresolved [also failed: replicate (attempt 34): replication conflict;]",
	"FW/mem-boundary":   "408c6c9eabe36a1b20307dfa2395a48ba917ce56e81a7ca9f4c0ff8cdcd8154e",
	"GEMM/diag":         "d08d2b738fcee08efd501165d5a6f436cf4f6f1b713bc62f47c53f798661f8dd",
	"GEMM/narrow-rf":    "e75fbd8599328941962e15ff339601c1f826dfa4d79073d6d6c46f94fb43336e",
	"GEMM/bus":          "d6da43112f3f9c20dcc4bb0a148510dc99325b1b89b45f91adc379a5c87863c5",
	"GEMM/mem-boundary": "error: himap: compilation of GEMM on 8x8/mesh/mem-boundary failed after 24 attempts: stage route (GEMM on 8x8/mesh/mem-boundary, attempt 1): routing congestion unresolved: himap: 47 resources oversubscribed (e.g. [OUT.S@(0,0)t0 REG1@(0,0)t9 OUT.S@(0,0)t8 REG0@(0,0)t12]): routing congestion unresolved",
	"MVT/diag":          "f9a62daa38a6231c83c8fd8ffa67947ab30722d671dc92654751239edb1a22de",
	"MVT/narrow-rf":     "fe2737308c429e5429794761d54911bc425082a89c9b2a11d94aaf31ad91fe53",
	"MVT/bus":           "d1352773886ad5cb6402ed60cddd2ee747a8871a4b07327956bf520710c360eb",
	"MVT/mem-boundary":  "error: himap: compilation of MVT on 8x8/mesh/mem-boundary failed after 0 attempts: stage idfg-map (MVT on 8x8/mesh/mem-boundary): memory-port demand infeasible on fabric: IDFG demands 2 memory loads per iteration; no sub-CGRA shape of the 8x8/mesh/mem-boundary fabric provides matching memory ports",

	"scale/ADI/32x32/mesh":   "9733297ad8f5439cef0c1f53fa25672c61dc2c77e76faec02a428752422f1d6a",
	"scale/ADI/32x32/torus":  "9733297ad8f5439cef0c1f53fa25672c61dc2c77e76faec02a428752422f1d6a",
	"scale/ADI/32x32/diag":   "9733297ad8f5439cef0c1f53fa25672c61dc2c77e76faec02a428752422f1d6a",
	"scale/MVT/32x32/mesh":   "4b167b3de472ad5d41337f92b13b5b92021f9a17abd5aabd53dada67e894ddb0",
	"scale/MVT/32x32/torus":  "522cb97722ba9394db51ae9d869d24e1c8ce2cffd4ff18b3f38a88376706c1c5",
	"scale/MVT/32x32/diag":   "932de679bf8593c9d3538fd4368b75e6e331ceb097e37a3d78fa3a1edf7eea76",
	"scale/GEMM/32x32/mesh":  "9f4c268b5c313d7ef6ee1a01815fc53801efe532ff1df9820eadbedb5ae67f0c",
	"scale/GEMM/32x32/torus": "368241185b57b3793927e35fa68e88cf3f36b542ff92208b6a5a9c9ab8dce115",
	"scale/GEMM/32x32/diag":  "cd14a2191a4d1c61fef94fadaf7ac48703b713c13c1ba046101e789c97b54527",
	"scale/GEMM/64x64/mesh":  "433b64351a58745b52e9f959746489eb74442dccf988217deaba977f1015396a",

	"conventional/FW/4x4": "72585af459fdeed49947c110e344214be2bc1bfc0cc815b1f4e7c2e92dbc67df",
	"exact/MVT/4x4":       "b258fbf6a0680365e1547660ba4c6d1d466f390acba7724a19eaeaa945a71023",
}

// goldenRow is one pinned compile: the key into goldenMappings and the
// request that must reproduce it.
type goldenRow struct {
	key, label string
	req        himap.Request
}

func goldenRows() []goldenRow {
	var rows []goldenRow
	for _, k := range himap.EvaluationKernels() {
		rows = append(rows, goldenRow{k.Name, k.Name,
			himap.Request{Kernel: k, Fabric: himap.DefaultFabric(8, 8)}})
	}
	fabrics := []struct {
		tag string
		mod func(*himap.Fabric)
	}{
		{"diag", func(f *himap.Fabric) { f.Topology = himap.TopoMeshDiag }},
		{"narrow-rf", func(f *himap.Fabric) { f.Bandwidth = himap.BWNarrowRF }},
		{"bus", func(f *himap.Fabric) { f.Bandwidth = himap.BWBus }},
		{"mem-boundary", func(f *himap.Fabric) { f.Mem = himap.MemBoundary }},
	}
	for _, k := range []*himap.Kernel{himap.KernelFW(), himap.KernelGEMM(), himap.KernelMVT()} {
		for _, fv := range fabrics {
			fab := himap.DefaultFabric(8, 8)
			fv.mod(&fab)
			key := k.Name + "/" + fv.tag
			for _, w := range []int{1, 4} {
				rows = append(rows, goldenRow{key, fmt.Sprintf("%s/w%d", key, w),
					himap.Request{Kernel: k, Fabric: fab, Options: himap.Options{Workers: w}}})
			}
		}
	}
	// Large fabrics, where the router's search window is a small part of
	// the array. MVT's first attempt fails in route at both sizes, so its
	// rows pin a multi-attempt compile.
	topos := []struct {
		tag  string
		topo himap.Topology
	}{{"mesh", himap.TopoMesh}, {"torus", himap.TopoTorus}, {"diag", himap.TopoMeshDiag}}
	for _, k := range []*himap.Kernel{himap.KernelADI(), himap.KernelMVT(), himap.KernelGEMM()} {
		for _, tp := range topos {
			fab := himap.DefaultFabric(32, 32)
			fab.Topology = tp.topo
			key := fmt.Sprintf("scale/%s/32x32/%s", k.Name, tp.tag)
			rows = append(rows, goldenRow{key, key, himap.Request{Kernel: k, Fabric: fab}})
		}
	}
	rows = append(rows, goldenRow{"scale/GEMM/64x64/mesh", "scale/GEMM/64x64/mesh",
		himap.Request{Kernel: himap.KernelGEMM(), Fabric: himap.DefaultFabric(64, 64)}})
	small := himap.DefaultFabric(4, 4)
	return append(rows,
		goldenRow{"conventional/FW/4x4", "conventional/FW/4x4", himap.Request{
			Kernel: himap.KernelFW(), Fabric: small, Mapper: himap.MapperConventional,
			Block: []int{2, 2, 2}, Baseline: himap.BaselineOptions{Seed: 1, Workers: 1}}},
		goldenRow{"exact/MVT/4x4", "exact/MVT/4x4", himap.Request{
			Kernel: himap.KernelMVT(), Fabric: small, Mapper: himap.MapperExact,
			Block: []int{2, 2}}})
}

func mappingFingerprint(cfg *himap.Config, rows, cols int) string {
	h := sha256.New()
	fmt.Fprintf(h, "ii=%d\n", cfg.II)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for t := 0; t < cfg.II; t++ {
				in := *cfg.At(r, c, t)
				in.Comment = ""
				fmt.Fprintf(h, "r%d c%d t%d %s\n", r, c, t, in.String())
			}
		}
	}
	for _, l := range cfg.Loads {
		fmt.Fprintf(h, "load %+v\n", l)
	}
	for _, s := range cfg.Stores {
		fmt.Fprintf(h, "store %+v\n", s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDefaultFabricBitIdentical is the regression anchor of every
// refactor: each goldenRows request must keep producing exactly the
// mapping pinned in goldenMappings. A request that ends in a typed
// infeasibility is pinned by its error text instead.
func TestDefaultFabricBitIdentical(t *testing.T) {
	for _, row := range goldenRows() {
		row := row
		t.Run(row.label, func(t *testing.T) {
			var got string
			r, err := himap.CompileRequest(context.Background(), row.req)
			if err != nil {
				got = "error: " + err.Error()
			} else {
				got = mappingFingerprint(r.Config, row.req.Fabric.Rows, row.req.Fabric.Cols)
				checkRenderings(t, r)
			}
			want := goldenMappings[row.key]
			if want == "" {
				t.Fatalf("no golden fingerprint for %s; capture: %q", row.key, got)
			}
			if got != want {
				t.Errorf("%s: mapping fingerprint drifted\n got %s\nwant %s", row.label, got, want)
			}
		})
	}
}

// goldenDiagnostics pins what mappingFingerprint leaves out: the SHA-256
// of the complete arch.WriteJSON rendering, which carries every
// Instr.Comment, the MemRead/MemWrite correlation tags, and cfg.Loads /
// cfg.Stores in emission order. These are diagnostics, not bitstream
// bits, but tools diff them — an emission rewrite must keep them
// byte-identical. Keys are goldenRows keys, or "<kernel>/<fabric>" for
// the 8x8 HiMap rows listed in TestDiagnosticsBitIdentical.
var goldenDiagnostics = map[string]string{
	"GEMM/mesh":           "a75e39eac2b5035910c4e52bb3938f8a70aaea37ce26c7044d3be60d002da0b4",
	"GEMM/torus":          "0bf08059def4c6dd06c6fbbb18e0a1d1e75fe2fd7648a43f0cf53e90825decef",
	"GEMM/narrow-rf":      "ea2d49cea315f83cde5fbf3a7c854eedd72c6c286e2ee440ef305d52ee3bebae",
	"conventional/FW/4x4": "13b54c634388e8d497c11fb856f235c66846d0fc48f77866bdac1b6df125c638",
	"exact/MVT/4x4":       "ef0d53d85965a807469736dcac03b69724ad9538dae5d704db6b010d1a6fc3a3",
}

func TestDiagnosticsBitIdentical(t *testing.T) {
	torus, narrow := himap.DefaultFabric(8, 8), himap.DefaultFabric(8, 8)
	torus.Topology, narrow.Bandwidth = himap.TopoTorus, himap.BWNarrowRF
	rows := []goldenRow{
		{key: "GEMM/mesh", req: himap.Request{Kernel: himap.KernelGEMM(), Fabric: himap.DefaultFabric(8, 8)}},
		{key: "GEMM/torus", req: himap.Request{Kernel: himap.KernelGEMM(), Fabric: torus}},
		{key: "GEMM/narrow-rf", req: himap.Request{Kernel: himap.KernelGEMM(), Fabric: narrow}},
	}
	for _, row := range goldenRows() {
		if strings.HasPrefix(row.key, "conventional/") || strings.HasPrefix(row.key, "exact/") {
			rows = append(rows, row)
		}
	}
	for _, row := range rows {
		row := row
		t.Run(row.key, func(t *testing.T) {
			r, err := himap.CompileRequest(context.Background(), row.req)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := himap.SaveConfig(r.Config, h); err != nil {
				t.Fatal(err)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := goldenDiagnostics[row.key]; got != want {
				t.Errorf("%s: WriteJSON bytes drifted\n got %s\nwant %s", row.key, got, want)
			}
		})
	}
}

// goldenAttemptSpans pins how the losing attempts fail, which no mapping
// fingerprint sees: the SHA-256 of the whole span stream of a Workers=1
// compile, one "attempt|stage|Err|sorted counters" line per span (Wall
// and Wave left out). The order in which an attempt's nets route decides
// which net congests and which resource the error names, so a rewrite of
// the routing loop must reproduce both rows.
var goldenAttemptSpans = map[string]string{
	"FW/narrow-rf": "87d23a516ff0e8833d7e7671062ed5a476ba7b1b1f70d5ccf281141e3751938f",
	"ATAX/diag":    "e1687fa30a76662673dbe2163818deefce98e2f06ed78a0e376ce32ebcee2805",
}

func TestAttemptSpansGolden(t *testing.T) {
	narrow, diagFab := himap.DefaultFabric(8, 8), himap.DefaultFabric(8, 8)
	narrow.Bandwidth, diagFab.Topology = himap.BWNarrowRF, himap.TopoMeshDiag
	for _, row := range []goldenRow{
		{key: "FW/narrow-rf", req: himap.Request{Kernel: himap.KernelFW(), Fabric: narrow}},
		{key: "ATAX/diag", req: himap.Request{Kernel: himap.KernelATAX(), Fabric: diagFab}},
	} {
		t.Run(row.key, func(t *testing.T) {
			spans := himap.NewTraceCollector()
			row.req.Options = himap.Options{Workers: 1, Memo: himap.NewMemo(), Tracer: spans}
			if _, err := himap.CompileRequest(context.Background(), row.req); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			failed := 0
			for _, s := range spans.Spans() {
				names := make([]string, 0, len(s.Counters))
				for name := range s.Counters {
					names = append(names, name)
				}
				sort.Strings(names)
				fmt.Fprintf(h, "%d|%s|%s|", s.Attempt, s.Stage, s.Err)
				for _, name := range names {
					fmt.Fprintf(h, "%s=%d,", name, s.Counters[name])
				}
				fmt.Fprintln(h)
				if s.Err != "" {
					failed++
				}
			}
			if failed == 0 {
				t.Fatal("no attempt failed: the row no longer pins a losing attempt")
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := goldenAttemptSpans[row.key]; got != want {
				t.Errorf("%s: span stream drifted (%d spans, %d failed)\n got %s\nwant %s", row.key, len(spans.Spans()), failed, got, want)
			}
		})
	}
}
