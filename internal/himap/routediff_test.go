package himap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"himap/internal/arch"
	"himap/internal/kernel"
)

// routerFingerprint renders a mapping to a canonical hash: the
// instruction stream (comments stripped), the II, and the load/store
// I/O specs — the same canonicalization the top-level fabric regression
// pins, so "byte-identical artifact" means the same thing in both.
func routerFingerprint(cfg *arch.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "ii=%d\n", cfg.II)
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
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

// TestRouterDifferentialLegacyVsAStar is the bit-identity contract of
// the router rewrite: on every evaluation kernel, on mesh and torus
// fabrics at 8x8 and 16x16, the A*+bucket-queue core must emit exactly
// the artifact the historical global-heap Dijkstra emits — same
// instruction stream, same I/O specs, same route-round count — or fail
// with exactly the same error.
func TestRouterDifferentialLegacyVsAStar(t *testing.T) {
	for _, topo := range []arch.Topology{arch.TopoMesh, arch.TopoTorus} {
		for _, size := range []int{8, 16} {
			if size == 16 && testing.Short() {
				continue
			}
			for _, k := range kernel.Evaluation() {
				k := k
				t.Run(fmt.Sprintf("%s/%s/%dx%d", k.Name, topo, size, size), func(t *testing.T) {
					fab := arch.Fabric{CGRA: arch.Default(size, size), Topology: topo}
					newR, newErr := CompileRequest(context.Background(), k, fab, Options{})
					oldR, oldErr := CompileRequest(context.Background(), k, fab, Options{routeLegacy: true})
					if (newErr == nil) != (oldErr == nil) {
						t.Fatalf("divergent outcome: A* err = %v, Dijkstra err = %v", newErr, oldErr)
					}
					if newErr != nil {
						if newErr.Error() != oldErr.Error() {
							t.Fatalf("divergent errors:\nA*:       %v\nDijkstra: %v", newErr, oldErr)
						}
						return
					}
					if got, want := routerFingerprint(newR.Config), routerFingerprint(oldR.Config); got != want {
						t.Errorf("mapping diverged: A* %s, Dijkstra %s", got, want)
					}
					if newR.Stats.RouteRounds != oldR.Stats.RouteRounds {
						t.Errorf("route rounds diverged: A* %d, Dijkstra %d",
							newR.Stats.RouteRounds, oldR.Stats.RouteRounds)
					}
				})
			}
		}
	}
}
