package arch_test

import (
	"context"
	"testing"

	"himap/internal/arch"
	"himap/internal/himap"
	"himap/internal/kernel"
	"himap/internal/sim"
)

// TestBitstreamRoundTripExecutes encodes a mapping to its binary
// configuration image, decodes it back, re-attaches the simulation-only
// memory correlation tags, and validates the decoded configuration
// cycle-accurately — the bitstream carries everything the hardware needs.
func TestBitstreamRoundTripExecutes(t *testing.T) {
	k := kernel.GEMM()
	res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := arch.Encode(res.Config)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bitstream: %d bytes total, max %d words/PE", bs.TotalBytes(), bs.MaxWordsPerPE())
	dec, err := bs.Decode(res.Config.Fabric)
	if err != nil {
		t.Fatal(err)
	}
	// Memory tags and I/O correlation are metadata outside the bitstream.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			for tt := 0; tt < dec.II; tt++ {
				dec.At(r, c, tt).MemRead.Tag = res.Config.At(r, c, tt).MemRead.Tag
				dec.At(r, c, tt).MemWrite.Tag = res.Config.At(r, c, tt).MemWrite.Tag
			}
		}
	}
	dec.Loads = res.Config.Loads
	dec.Stores = res.Config.Stores
	if err := sim.Validate(dec, k, res.Block, 2, 808); err != nil {
		t.Fatal(err)
	}
}
