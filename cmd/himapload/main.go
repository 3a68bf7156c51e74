// Command himapload is the himapd load generator and soak harness: it
// drives a cluster of replicas (self-hosted in-process with -cluster,
// or external with -addrs) with a seeded kernel mix for a fixed
// duration and prints a JSON report (stdout, or -out FILE; the one-line
// summary goes to stderr) — request counts, error-code breakdown, cache
// hit rate, forwarding counts, and latency percentiles
// (p50/p90/p99/max). The harness exits nonzero on any 5xx
// response, and with -require-hits also when the run produced zero
// cache hits, so CI can assert the serving layer's two core promises
// (never fail, reuse work) under sustained concurrent load.
//
// The workload is deterministic in shape: a fixed kernel/fabric mix
// visited by seeded PRNG, so two runs at the same seed issue the same
// request multiset. Latencies are wall-clock measurements and vary run
// to run — they are reported, never asserted on.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"himap/internal/serve"
)

// requestMix is the fixed workload: evaluation kernels at a small
// fabric, repeated often enough that a warm cache shows hits.
var requestMix = []string{
	`{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{}}`,
	`{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}`,
	`{"kernel":"BICG","fabric":{"rows":4,"cols":4},"options":{}}`,
	`{"kernel":"ATAX","fabric":{"rows":4,"cols":4},"options":{}}`,
	`{"kernel":"SYRK","fabric":{"rows":4,"cols":4},"options":{}}`,
	`{"kernel":"CONV2D","fabric":{"rows":4,"cols":4},"options":{}}`,
	`{"kernel":"MVT","fabric":{"rows":5,"cols":5},"options":{}}`,
	`{"kernel":"GEMM","fabric":{"rows":5,"cols":5},"options":{"mapper":"conventional","block":[4,4,4],"seed":1}}`,
}

// report is the soak summary himapload prints.
type report struct {
	Replicas    int     `json:"replicas"`
	Concurrency int     `json:"concurrency"`
	DurationS   float64 `json:"duration_s"`
	Seed        int64   `json:"seed"`

	Requests  int64            `json:"requests"`
	OK        int64            `json:"ok"`
	Errors    map[string]int64 `json:"errors,omitempty"` // by coarse wire code
	Status5xx int64            `json:"status_5xx"`

	Cache struct {
		Hits      int64   `json:"hits"` // memory + disk + coalesced
		Misses    int64   `json:"misses"`
		StoreHits int64   `json:"store_hits"`
		Coalesced int64   `json:"coalesced"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`
	Forwarded int64 `json:"forwarded"` // responses served by a relay peer

	LatencyMS struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
}

func main() {
	cluster := flag.Int("cluster", 0, "self-host N in-process replicas (mutually exclusive with -addrs)")
	addrs := flag.String("addrs", "", "comma-separated base URLs of an external cluster")
	duration := flag.Duration("duration", 5*time.Second, "soak duration")
	concurrency := flag.Int("concurrency", 4, "concurrent client workers")
	seed := flag.Int64("seed", 1, "workload PRNG seed")
	out := flag.String("out", "-", "report path (- for stdout)")
	requireHits := flag.Bool("require-hits", false, "exit nonzero when the run produced zero cache hits")
	storeDir := flag.String("store", "", "disk store directory for self-hosted replicas (empty: memory only)")
	flag.Parse()

	if err := run(*cluster, *addrs, *duration, *concurrency, *seed, *out, *requireHits, *storeDir); err != nil {
		fmt.Fprintf(os.Stderr, "himapload: %v\n", err)
		os.Exit(1)
	}
}

func run(cluster int, addrs string, duration time.Duration, concurrency int, seed int64, out string, requireHits bool, storeDir string) error {
	var urls []string
	if cluster > 0 && addrs != "" {
		return fmt.Errorf("-cluster and -addrs are mutually exclusive")
	}
	switch {
	case cluster > 0:
		hosted, shutdown, err := selfHost(cluster, storeDir)
		if err != nil {
			return err
		}
		defer shutdown()
		urls = hosted
	case addrs != "":
		for _, a := range strings.Split(addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				urls = append(urls, a)
			}
		}
	default:
		return fmt.Errorf("one of -cluster or -addrs is required")
	}
	if concurrency < 1 {
		concurrency = 1
	}

	rep := soak(urls, duration, concurrency, seed)

	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if out == "-" {
		os.Stdout.Write(body)
	} else {
		if err := os.WriteFile(out, body, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "himapload: wrote %s\n", out)
	}
	fmt.Fprintf(os.Stderr, "himapload: %d requests, %d ok, %d 5xx, hit rate %.2f, %d forwarded, p99 %.1fms\n",
		rep.Requests, rep.OK, rep.Status5xx, rep.Cache.HitRate, rep.Forwarded, rep.LatencyMS.P99)

	if rep.Status5xx > 0 {
		return fmt.Errorf("%d responses were 5xx", rep.Status5xx)
	}
	if requireHits && rep.Cache.Hits == 0 {
		return fmt.Errorf("zero cache hits over %d requests", rep.Requests)
	}
	return nil
}

// selfHost starts n serve.Server replicas on loopback listeners that
// know each other as shard peers, and returns their base URLs plus a
// shutdown function. Listeners are allocated first so every replica's
// config can carry the full peer list.
func selfHost(n int, storeDir string) ([]string, func(), error) {
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peers := urls
	if n == 1 {
		peers = nil // a single replica runs unsharded
	}
	servers := make([]*http.Server, n)
	for i, ln := range listeners {
		cfg := serve.Config{
			MaxInFlight: 4,
			Peers:       peers,
		}
		if peers != nil {
			cfg.Self = urls[i]
		}
		if storeDir != "" {
			cfg.StoreDir = fmt.Sprintf("%s/replica-%d", storeDir, i)
		}
		core, err := serve.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		servers[i] = &http.Server{Handler: core.Handler()}
		go servers[i].Serve(ln)
	}
	shutdown := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return urls, shutdown, nil
}

// soak drives the cluster for the configured duration and aggregates
// the report. Each worker owns a PRNG derived from the seed, so the
// request sequence per worker is reproducible.
func soak(urls []string, duration time.Duration, concurrency int, seed int64) report {
	var (
		mu        sync.Mutex
		latencies []float64
		rep       report
	)
	rep.Replicas = len(urls)
	rep.Concurrency = concurrency
	rep.DurationS = duration.Seconds()
	rep.Seed = seed
	rep.Errors = map[string]int64{}

	deadline := time.Now().Add(duration) //lint:ignore determinism load-harness wall clock; never reaches a mapping
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			client := &http.Client{}
			for {
				now := time.Now() //lint:ignore determinism latency measurement; never reaches a mapping
				if now.After(deadline) {
					return
				}
				body := requestMix[rng.Intn(len(requestMix))]
				url := urls[rng.Intn(len(urls))]
				resp, err := client.Post(url+"/v1/compile", "application/json", strings.NewReader(body))
				elapsed := time.Since(now)
				mu.Lock()
				rep.Requests++
				if err != nil {
					rep.Status5xx++ // connection-level failure counts as a serving failure
					mu.Unlock()
					continue
				}
				latencies = append(latencies, float64(elapsed.Microseconds())/1000)
				switch {
				case resp.StatusCode == http.StatusOK:
					rep.OK++
				case resp.StatusCode >= 500:
					rep.Status5xx++
				}
				switch resp.Header.Get("X-Himap-Cache") {
				case "hit":
					rep.Cache.Hits++
				case "store":
					rep.Cache.Hits++
					rep.Cache.StoreHits++
				case "coalesced":
					rep.Cache.Hits++
					rep.Cache.Coalesced++
				case "miss":
					rep.Cache.Misses++
				}
				if resp.Header.Get("X-Himap-Peer") != "" {
					rep.Forwarded++
				}
				mu.Unlock()

				payload, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					code := errorCode(payload)
					mu.Lock()
					rep.Errors[code]++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	if rep.Cache.Hits+rep.Cache.Misses > 0 {
		rep.Cache.HitRate = float64(rep.Cache.Hits) / float64(rep.Cache.Hits+rep.Cache.Misses)
	}
	sort.Float64s(latencies)
	rep.LatencyMS.P50 = percentile(latencies, 0.50)
	rep.LatencyMS.P90 = percentile(latencies, 0.90)
	rep.LatencyMS.P99 = percentile(latencies, 0.99)
	if len(latencies) > 0 {
		rep.LatencyMS.Max = latencies[len(latencies)-1]
	}
	return rep
}

// errorCode extracts the coarse wire code from an error body.
func errorCode(body []byte) string {
	var er struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(body), &er); err != nil || er.Error.Code == "" {
		return "undecodable"
	}
	return er.Error.Code
}

// percentile reads the p-quantile from an ascending sample (nearest
// rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
