package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/serve"
)

// buildCLI builds this command into a temporary directory.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "himap")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestWorkersFlagKeepsConventionalMapping pins the -workers help text
// ("the mapping is identical either way") for the conventional mapper:
// the flag must not reach the SA chain count, which changes the mapping.
func TestWorkersFlagKeepsConventionalMapping(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	saved := func(workers string) []byte {
		path := filepath.Join(dir, "w"+workers+".json")
		out, err := exec.Command(bin, "-mapper", "conventional", "-kernel", "FW",
			"-rows", "4", "-cols", "4", "-block", "2", "-workers", workers, "-save", path).CombinedOutput()
		if err != nil {
			t.Fatalf("himap -workers %s: %v\n%s", workers, err, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(saved("1"), saved("4")) {
		t.Error("-save bytes differ between -workers 1 and -workers 4")
	}
}

// TestRefusalsPrintOnce: a request the command refuses exits 1 with one
// line on stderr under a single "himap: " prefix, whether the CLI, the
// root CompileRequest or the compile refuses it, and a negative -block
// or -inner is refused rather than replaced by the default.
func TestRefusalsPrintOnce(t *testing.T) {
	bin := buildCLI(t)
	for _, r := range []struct {
		args []string
		want string
	}{
		{[]string{"-mapper", "conventional", "-kernel", "MVT", "-rows", "4", "-cols", "4", "-block", "-2"}, "himap: -block -2 is negative"},
		{[]string{"-kernel", "GEMM", "-inner", "-1"}, "invalid compile request: inner block -1 is negative"},
		{[]string{"-mapper", "foo"}, `invalid compile request: unknown mapper "foo"`},
		{[]string{"-kernel", "NW", "-inner", "1"}, "himap: compilation of NW on 8x8 failed after 0 attempts"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, r.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		out := stderr.String()
		if err == nil || !strings.Contains(out, r.want) || strings.Count(out, "himap: ") != 1 || strings.Count(out, "\n") != 1 {
			t.Errorf("himap %s: %v, stderr %q; want exit 1 and one line with one prefix containing %q", strings.Join(r.args, " "), err, out, r.want)
		}
	}
}

// TestFabricSpellings runs every spelling a fabric class accepts (its
// names, "" for the default, the aliases and an upper-case variant) and
// one it refuses through the three places a fabric is named: a
// configuration file (arch.ReadJSON), the wire (serve.BuildFabric) and
// this command's flags. All three must build the same fabric, or refuse
// the name with the same text: the file with ErrConfigInvalid, the wire
// with ErrBadRequest in front, the CLI on stderr with exit status 1.
func TestFabricSpellings(t *testing.T) {
	bin := buildCLI(t)
	def := arch.DefaultFabric(4, 4)
	topo := func(v arch.Topology) arch.Fabric { f := def; f.Topology = v; return f }
	mem := func(v arch.MemPolicy) arch.Fabric { f := def; f.Mem = v; return f }
	bw := func(v arch.BandwidthClass) arch.Fabric { f := def; f.Bandwidth = v; return f }
	cost := func(v arch.CostClass) arch.Fabric { f := def; f.Cost = v; return f }
	// key is the configuration-file and wire field; flag the CLI's.
	classes := map[string]string{"topology": "fabric", "mem_pes": "mem-pes", "bandwidth": "bandwidth", "cost_class": "cost"}
	for _, c := range []struct {
		key, name string
		want      arch.Fabric // when err is ""
		err       string
	}{
		{"topology", "mesh", topo(arch.TopoMesh), ""},
		{"topology", "torus", topo(arch.TopoTorus), ""},
		{"topology", "diag", topo(arch.TopoMeshDiag), ""},
		{"topology", "", topo(arch.TopoMesh), ""},
		{"topology", "mesh+diag", topo(arch.TopoMeshDiag), ""},
		{"topology", "meshdiag", topo(arch.TopoMeshDiag), ""},
		{"topology", "TORUS", topo(arch.TopoTorus), ""},
		{"topology", "hypercube", def, `arch: unknown topology "hypercube" (want mesh|torus|diag)`},
		{"mem_pes", "all", mem(arch.MemAll), ""},
		{"mem_pes", "boundary", mem(arch.MemBoundary), ""},
		{"mem_pes", "none", mem(arch.MemNone), ""},
		{"mem_pes", "", mem(arch.MemAll), ""},
		{"mem_pes", "Boundary", mem(arch.MemBoundary), ""},
		{"mem_pes", "corners", def, `arch: unknown memory policy "corners" (want all|boundary|none)`},
		{"bandwidth", "unit", bw(arch.BWUnit), ""},
		{"bandwidth", "double", bw(arch.BWDouble), ""},
		{"bandwidth", "bus", bw(arch.BWBus), ""},
		{"bandwidth", "narrow-rf", bw(arch.BWNarrowRF), ""},
		{"bandwidth", "", bw(arch.BWUnit), ""},
		{"bandwidth", "narrowrf", bw(arch.BWNarrowRF), ""},
		{"bandwidth", "NARROW-RF", bw(arch.BWNarrowRF), ""},
		{"bandwidth", "quad", def, `arch: unknown bandwidth class "quad" (want unit|double|bus|narrow-rf)`},
		{"cost_class", "balanced", cost(arch.CostBalanced), ""},
		{"cost_class", "low-power", cost(arch.CostLowPower), ""},
		{"cost_class", "high-perf", cost(arch.CostHighPerf), ""},
		{"cost_class", "", cost(arch.CostBalanced), ""},
		{"cost_class", "lowpower", cost(arch.CostLowPower), ""},
		{"cost_class", "highperf", cost(arch.CostHighPerf), ""},
		{"cost_class", "High-Perf", cost(arch.CostHighPerf), ""},
		{"cost_class", "military", def, `arch: unknown cost class "military" (want balanced|low-power|high-perf)`},
	} {
		t.Run(c.key+"="+c.name, func(t *testing.T) {
			fileFab, fileErr := readFileFabric(t, def.CGRA, c.key, c.name)
			wireFab, wireErr := wireFabric(t, c.key, c.name)
			out, cliErr := exec.Command(bin, "-kernel", "ADI", "-rows", "4", "-cols", "4", "-"+classes[c.key], c.name).CombinedOutput()
			if c.err != "" {
				want := c.err + ": " + diag.ErrConfigInvalid.Error()
				if fileErr == nil || fileErr.Error() != want || !errors.Is(fileErr, diag.ErrConfigInvalid) {
					t.Errorf("file: %v, want %q wrapping ErrConfigInvalid", fileErr, want)
				}
				if wireErr == nil || wireErr.Error() != serve.ErrBadRequest.Error()+": "+want || !errors.Is(wireErr, serve.ErrBadRequest) {
					t.Errorf("wire: %v, want %q behind ErrBadRequest", wireErr, want)
				}
				if cliErr == nil || string(out) != "himap: "+want+"\n" {
					t.Errorf("CLI: %v, %q, want exit 1 and %q", cliErr, out, "himap: "+want+"\n")
				}
				return
			}
			if fileErr != nil || fileFab != c.want {
				t.Errorf("file: %v, %+v, want %+v", fileErr, fileFab, c.want)
			}
			if wireErr != nil || wireFab != c.want {
				t.Errorf("wire: %v, %+v, want %+v", wireErr, wireFab, c.want)
			}
			// The summary line, or the compile's failure, names the fabric.
			m := regexp.MustCompile(`ADI on ([^ :]+)`).FindSubmatch(out)
			if m == nil || string(m[1]) != c.want.String() {
				t.Errorf("CLI output %q, want it to name %s", out, c.want)
			}
		})
	}
}

// readFileFabric decodes a minimal configuration file (II 1, all nops)
// on array cg whose only fabric class field is key = name.
func readFileFabric(t *testing.T, cg arch.CGRA, key, name string) (arch.Fabric, error) {
	t.Helper()
	cgJSON, err := json.Marshal(cg)
	if err != nil {
		t.Fatal(err)
	}
	row := "[" + strings.TrimSuffix(strings.Repeat("[{}],", cg.Cols), ",") + "]"
	slots := "[" + strings.TrimSuffix(strings.Repeat(row+",", cg.Rows), ",") + "]"
	file := fmt.Sprintf(`{"version":3,"cgra":%s,%q:%q,"ii":1,"slots":%s}`, cgJSON, key, name, slots)
	cfg, err := arch.ReadJSON(strings.NewReader(file))
	if err != nil {
		return arch.Fabric{}, err
	}
	return cfg.Fabric, nil
}

// wireFabric decodes a 4x4 wire fabric object whose only class field is
// key = name and builds it.
func wireFabric(t *testing.T, key, name string) (arch.Fabric, error) {
	t.Helper()
	var spec serve.FabricSpec
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"rows":4,"cols":4,%q:%q}`, key, name)), &spec); err != nil {
		t.Fatal(err)
	}
	return serve.BuildFabric(spec)
}
