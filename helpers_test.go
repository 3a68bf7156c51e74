package himap_test

import (
	"context"

	"himap"
)

// Test-local shorthands for the common CompileRequest shapes, so a suite
// that compiles dozens of (kernel, fabric) pairs states only what varies.

func compile(k *himap.Kernel, cg himap.CGRA, opts himap.Options) (*himap.Result, error) {
	return himap.CompileRequest(context.Background(),
		himap.Request{Kernel: k, Fabric: himap.Fabric{CGRA: cg}, Options: opts})
}

func compileFabric(k *himap.Kernel, fab himap.Fabric, opts himap.Options) (*himap.Result, error) {
	return himap.CompileRequest(context.Background(),
		himap.Request{Kernel: k, Fabric: fab, Options: opts})
}

func compileBaseline(k *himap.Kernel, cg himap.CGRA, block []int, opts himap.BaselineOptions) (*himap.BaselineResult, error) {
	return compileBaselineFabric(k, himap.Fabric{CGRA: cg}, block, opts)
}

func compileBaselineFabric(k *himap.Kernel, fab himap.Fabric, block []int, opts himap.BaselineOptions) (*himap.BaselineResult, error) {
	res, err := himap.CompileRequest(context.Background(), himap.Request{
		Kernel: k, Fabric: fab, Mapper: himap.MapperConventional,
		Block: block, Baseline: opts,
	})
	if err != nil {
		return nil, err
	}
	return res.Conventional, nil
}
