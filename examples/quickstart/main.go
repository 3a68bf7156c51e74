// Quickstart: map GEMM onto a 4x4 CGRA with HiMap, inspect the result,
// and validate it cycle-accurately.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"himap"
)

func main() {
	k := himap.KernelGEMM()
	cgra := himap.DefaultCGRA(4, 4)

	res, err := himap.CompileRequest(context.Background(),
		himap.Request{Kernel: k, Fabric: himap.Fabric{CGRA: cgra}})
	if err != nil {
		log.Fatalf("compile: %v", err)
	}

	fmt.Println("== HiMap quickstart ==")
	fmt.Println(res.Summary())
	fmt.Printf("systolic transformation: %s\n", res.Mapping)
	fmt.Printf("compiled in %v (%d canonical nets for %d unique iteration classes)\n",
		res.Stats.Total, res.Stats.CanonicalNets, res.UniqueIters)

	model := himap.DefaultPowerModel()
	fmt.Printf("throughput %.0f MOPS at %.1f mW -> %.1f MOPS/mW\n",
		model.PerformanceMOPS(res.Config),
		model.PowerMW(res.Config),
		model.EfficiencyMOPSPerMW(res.Config))

	// Cycle-accurate functional validation: three back-to-back block
	// instances stream through the array, one initiation every II_B
	// cycles; every block's outputs must match the golden executor.
	if err := himap.Validate(res, 3, 2024); err != nil {
		log.Fatalf("validation: %v", err)
	}
	fmt.Println("cycle-accurate validation: PASS")

	// The mapping saves as a JSON configuration file, loads back
	// validated, and the loaded file executes like the compiled mapping.
	var file bytes.Buffer
	if err := himap.SaveConfig(res.Config, &file); err != nil {
		log.Fatalf("save: %v", err)
	}
	size := file.Len()
	loaded, err := himap.LoadConfig(&file)
	if err != nil {
		log.Fatalf("load: %v", err)
	}
	if err := himap.ValidateConfig(loaded, k, res.Block, 3, 2024); err != nil {
		log.Fatalf("validation of the loaded file: %v", err)
	}
	fmt.Printf("saved configuration: %d bytes; the loaded file validates too\n", size)

	fmt.Println("\nPer-PE utilization:")
	fmt.Print(himap.RenderUtilization(res.Config))
	fmt.Println("\nPE(1,1) program:")
	fmt.Print(himap.RenderPEProgram(res.Config, 1, 1))
}
