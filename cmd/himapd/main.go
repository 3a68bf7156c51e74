// Command himapd serves the HiMap compiler over HTTP/JSON: POST
// /v1/compile (named or inline kernels, fabric config, per-request
// deadlines; Accept: text/event-stream selects the SSE stage-event
// stream), POST /v1/compile-batch (many compiles, one deadline, shared
// artifact memo), GET /v1/kernels, GET /healthz, and GET /metrics.
// Results are cached content-addressed in memory and — with -store — on
// disk across restarts (identical requests return byte-identical bodies,
// coalesced onto one compile when concurrent), and admission is bounded
// (overflow answers 429). The wire contract has exactly one version: a
// request body omits schema_version or pins the current value, and any
// other pin answers a typed 400. The design-space sweep (one kernel
// ranked across fabric candidates by MOPS/mW) is not served; it is
// `experiments -explore`. See DESIGN.md, "Compile service" and "Serving
// at scale".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"himap/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "pipeline workers per compile (0 = GOMAXPROCS)")
	maxInFlight := flag.Int("max-inflight", 2, "concurrently executing compiles")
	maxQueue := flag.Int("max-queue", 16, "requests allowed to wait beyond -max-inflight (negative: none)")
	cacheMB := flag.Int64("cache-mb", 64, "result cache budget in MiB (negative: disable)")
	storeDir := flag.String("store", "", "disk result-store directory (empty: memory cache only)")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-request compile deadline")
	maxExactCells := flag.Int("max-exact-cells", 128, "DFG cell budget accepted by the exact mapper per request")
	maxBatch := flag.Int("max-batch", 64, "items allowed per /v1/compile-batch request")
	flag.Parse()

	cfg := serve.Config{
		Workers:        *workers,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		CacheBytes:     *cacheMB << 20,
		StoreDir:       *storeDir,
		DefaultTimeout: *timeout,
		MaxExactCells:  *maxExactCells,
		MaxBatchItems:  *maxBatch,
	}
	if err := run(cfg, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "himapd: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg serve.Config, addr string) error {
	core, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: core.Handler()}

	// SIGINT/SIGTERM start a graceful shutdown: stop accepting, let
	// running compiles finish (bounded), then exit 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("himapd: listening on http://%s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("himapd: shutdown complete")
	return nil
}
