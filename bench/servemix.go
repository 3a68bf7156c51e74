package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"himap"
	"himap/internal/serve"
)

// serveClients is the closed loop's client count: each sends its next
// request only after the previous one completed.
const serveClients = 2

// servePaths are the X-Himap-Cache values a response can carry.
var servePaths = []string{"hit", "store", "miss", "coalesced"}

// servePass is one run of the request list against a fresh server and a
// fresh, empty disk store.
type servePass struct {
	wallS      float64
	latMS      map[string][]float64 // by X-Himap-Cache path
	keySlowMS  []float64            // per key: its slowest request in the pass (its miss)
	allocBytes uint64
	snap       serve.Snapshot
	spans      []span
}

type serveRunner struct {
	cfg   runConfig
	rep   *report
	keys  []serveKey
	draw  []int
	alloc *allocMeter
	epoch time.Time
	// first[k] is the first body served for key k; every later response
	// for k, in any pass, must equal it byte for byte.
	first []atomic.Pointer[[]byte]
}

func (r *serveRunner) setup() float64 {
	t0 := time.Now()
	r.keys = servePopulation(r.cfg.tiny)
	n := serveRequests
	if r.cfg.tiny {
		n = 60
	}
	r.draw = serveDraw(len(r.keys), n, r.cfg.seed)
	if r.first == nil {
		r.first = make([]atomic.Pointer[[]byte], len(r.keys))
	}
	r.pass(false)
	return time.Since(t0).Seconds()
}

func (r *serveRunner) pass(traced bool) servePass {
	p := servePass{latMS: map[string][]float64{}, keySlowMS: make([]float64, len(r.keys))}
	dir, err := os.MkdirTemp(r.cfg.tmpRoot(), "store-")
	if err != nil {
		r.rep.fail("serve_mix: %v", err)
		return p
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(serve.Config{StoreDir: dir, CacheBytes: serveCacheBytes, MaxInFlight: 2})
	if err != nil {
		r.rep.fail("serve_mix: %v", err)
		return p
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	url := ts.URL + "/v1/compile"

	type sample struct {
		path       string
		start, end time.Time
	}
	samples := make([]sample, len(r.draw))
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	b0, _ := r.alloc.read()
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.draw) {
					return
				}
				k := r.draw[i]
				start := time.Now()
				path, err := r.post(client, url, k, &buf)
				samples[i] = sample{path, start, time.Now()}
				if err != nil {
					r.rep.fail("serve_mix request %d (%s): %v", i, r.keys[k].name, err)
				}
			}
		}()
	}
	wg.Wait()
	p.wallS = time.Since(t0).Seconds()
	b1, _ := r.alloc.read()
	p.allocBytes = b1 - b0
	p.snap = srv.Metrics().Snapshot()

	for i, s := range samples {
		if s.path == "" {
			continue // failed request, already counted
		}
		lat := ms(s.end.Sub(s.start))
		p.latMS[s.path] = append(p.latMS[s.path], lat)
		if k := r.draw[i]; lat > p.keySlowMS[k] {
			p.keySlowMS[k] = lat
		}
		if traced {
			p.spans = append(p.spans, span{
				Name:  "serve.request " + r.keys[r.draw[i]].name + " [" + s.path + "]",
				start: s.start.Sub(r.epoch).Nanoseconds(), end: s.end.Sub(r.epoch).Nanoseconds(),
			})
		}
	}
	return p
}

// post sends one request and checks the response: 200, a known cache
// path, and a body equal to the first one served for this key.
func (r *serveRunner) post(client *http.Client, url string, k int, buf *bytes.Buffer) (string, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(r.keys[k].body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.String())
	}
	path := resp.Header.Get("X-Himap-Cache")
	if first := r.first[k].Load(); first == nil {
		body := append([]byte(nil), buf.Bytes()...)
		r.first[k].CompareAndSwap(nil, &body)
	} else if !bytes.Equal(*first, buf.Bytes()) {
		return "", fmt.Errorf("body differs from the first response for this key")
	}
	for _, known := range servePaths {
		if path == known {
			return path, nil
		}
	}
	return "", fmt.Errorf("unexpected X-Himap-Cache %q", path)
}

// gate checks the served bytes against the compiler itself: for 8 keys
// drawn by seed, the served body must equal serve.EncodeResponse of a
// direct himap.CompileRequest, and that mapping must pass simulation
// and the static II lower bound. It also derives the deterministic
// quality metrics from every key's served configuration.
func (r *serveRunner) gate() (fs []facts, cost gateCost) {
	sample := rand.New(rand.NewSource(r.cfg.seed)).Perm(len(r.keys))
	if len(sample) > 8 {
		sample = sample[:8]
	}
	for _, k := range sample {
		key := r.keys[k]
		served := r.first[k].Load()
		if served == nil {
			r.rep.fail("gate %s: never served", key.name)
			continue
		}
		req, err := serve.BuildRequest(&key.wire, serve.Config{})
		if err != nil {
			r.rep.fail("gate %s: %v", key.name, err)
			continue
		}
		req.Options.Memo = himap.NewMemo()
		res, err := himap.CompileRequest(context.Background(), req)
		if err != nil {
			r.rep.fail("gate %s: direct compile: %v", key.name, err)
			continue
		}
		direct, err := serve.EncodeResponse(res)
		if err != nil || !bytes.Equal(direct, *served) {
			r.rep.fail("gate %s: served body differs from a direct compile (%v)", key.name, err)
		}
		t0 := time.Now()
		if err := himap.Validate(res, 2, r.cfg.seed); err != nil {
			r.rep.fail("gate %s: simulation disagrees with the golden executor: %v", key.name, err)
		}
		cost.simMS += ms(time.Since(t0))
		if lb, err := himap.ExactLowerBound(res.Kernel, res.Fabric, res.Block); err != nil {
			r.rep.fail("gate %s: lower bound: %v", key.name, err)
		} else if res.Config.II < lb {
			r.rep.fail("gate %s: II %d undercuts the static lower bound %d", key.name, res.Config.II, lb)
		}
	}

	fs = make([]facts, len(r.keys))
	for k := range r.keys {
		served := r.first[k].Load()
		if served == nil {
			r.rep.fail("gate %s: never served", r.keys[k].name)
			continue
		}
		var resp serve.CompileResponse
		if err := json.Unmarshal(*served, &resp); err != nil {
			r.rep.fail("gate %s: response does not parse: %v", r.keys[k].name, err)
			continue
		}
		t0 := time.Now()
		cfg, err := himap.LoadConfig(bytes.NewReader(resp.Config)) // validates
		cost.cfgValidateMS += ms(time.Since(t0))
		if err != nil {
			r.rep.fail("gate %s: served config invalid: %v", r.keys[k].name, err)
			continue
		}
		t0 = time.Now()
		bs, err := himap.EncodeBitstream(cfg)
		cost.encodeMS += ms(time.Since(t0))
		if err != nil {
			r.rep.fail("gate %s: encode: %v", r.keys[k].name, err)
			continue
		}
		fs[k] = facts{
			set: true, digest: sha256.Sum256(*served), ii: resp.II, util: resp.Utilization,
			eff:            himap.PowerModelFor(cfg.Fabric).EfficiencyMOPSPerMW(cfg),
			bitstreamBytes: bs.TotalBytes(),
		}
	}
	return fs, cost
}

func runServeMix(w workload, cfg runConfig) *report {
	rep := newReport(w.name)
	r := &serveRunner{cfg: cfg, rep: rep, alloc: newAllocMeter(), epoch: time.Now()}
	minPasses, minPairs := 3, 2
	if cfg.tiny {
		minPasses, minPairs = 1, 1
	}
	rep.note("clients=%d closed-loop server_workers=GOMAXPROCS max_in_flight=2 cache_bytes=%d zipf_s=%.2f",
		serveClients, serveCacheBytes, zipfExponent)

	var passes, plain []servePass
	if !cfg.trace {
		var setups []float64
		for i := 0; i < 3; i++ {
			setups = append(setups, r.setup())
		}
		rep.metrics["setup_s"] = median(setups)
		start := time.Now()
		for len(passes) < minPasses || time.Since(start).Seconds()+passes[len(passes)-1].wallS < cfg.seconds {
			passes = append(passes, r.pass(false))
			rep.attempted += len(r.draw)
		}
	} else {
		r.setup()
		start := time.Now()
		for len(passes) < minPairs || time.Since(start).Seconds() < cfg.seconds/2 {
			plain = append(plain, r.pass(false))
			passes = append(passes, r.pass(true))
			rep.attempted += 2 * len(r.draw)
		}
	}
	rss := peakRSSMB()

	// As for the compile workloads, the time metrics report the best
	// pass: a pass is one fixed request list, and host noise only adds.
	// The slowest operation is likewise the slowest key at its best: each
	// key's slowest request of a pass (its one miss), at its fastest over
	// the passes.
	pooled := map[string][]float64{}
	keyBest := make([]float64, len(r.keys))
	var walls, allocs []float64
	for _, p := range passes {
		walls = append(walls, p.wallS)
		foldBest(keyBest, p.keySlowMS)
		allocs = append(allocs, float64(p.allocBytes)/1e6)
		for path, ls := range p.latMS {
			pooled[path] = append(pooled[path], ls...)
		}
	}
	rep.note("population=%d requests_per_pass=%d passes=%d samples: hit=%d store=%d miss=%d coalesced=%d",
		len(r.keys), len(r.draw), len(passes),
		len(pooled["hit"]), len(pooled["store"]), len(pooled["miss"]), len(pooled["coalesced"]))

	fs, cost := r.gate()
	m := rep.metrics
	if !cfg.trace {
		m["compile_s"] = quantile(walls, 0)
		m["compile_slowest_ms"] = quantile(keyBest, 1)
		m["alloc_mb"] = median(allocs)
		m["peak_rss_mb"] = rss
		qualityMetrics(fs, m)
		q1, q3 := quartiles(walls)
		rep.note("whole-pass walls: median %.4f s, p25 %.4f, p75 %.4f", median(walls), q1, q3)
	} else {
		m["serve_rps"] = float64(len(r.draw)) / quantile(walls, 0)
		m["serve_hit_p50_ms"] = median(pooled["hit"])
		m["serve_store_p50_ms"] = median(pooled["store"])
		m["serve_miss_p50_ms"] = median(pooled["miss"])
		var pct float64
		m["serve_hit_p99_ms"], pct = topPercentile(pooled["hit"], 99)
		rep.note("serve_hit_p99_ms is p%g of %d samples", pct, len(pooled["hit"]))
		m["serve.store.p99_ms"], pct = topPercentile(pooled["store"], 99)
		rep.note("serve.store.p99_ms is p%g of %d samples", pct, len(pooled["store"]))
		m["serve.miss.p90_ms"], pct = topPercentile(pooled["miss"], 90)
		rep.note("serve.miss.p90_ms is p%g of %d samples", pct, len(pooled["miss"]))
		for _, path := range servePaths {
			m["serve."+path+".count"] = float64(len(pooled[path]))
		}
		// Server-side stage walls come from the service's own registry:
		// it attaches its metrics tracer to every compile it runs.
		stage := map[string][]float64{}
		var attempts []float64
		for _, p := range passes {
			for _, st := range himapStages {
				stage[st] = append(stage[st], p.snap.Stages[st].TotalMS)
			}
			attempts = append(attempts, float64(p.snap.Stages["block-derive"].Count))
			m["serve.snapshot.requests"] += float64(p.snap.Requests)
			m["serve.snapshot.compiles"] += float64(p.snap.Compiles)
			m["serve.snapshot.cache_hits"] += float64(p.snap.CacheHits)
			m["serve.snapshot.cache_misses"] += float64(p.snap.CacheMisses)
			m["serve.snapshot.failures"] += float64(p.snap.Failures)
			m["serve.snapshot.rejected"] += float64(p.snap.Rejected)
		}
		for _, st := range himapStages {
			m["himap."+st+".ms"] = median(stage[st])
		}
		m["himap.attempts"] = median(attempts)
		if a := median(attempts); a > 0 {
			m["himap.attempt_success_ratio"] = float64(passes[0].snap.Compiles) / a
		}
		var ps []float64
		for _, p := range plain {
			ps = append(ps, p.wallS)
		}
		if base := quantile(ps, 0); base > 0 {
			m["trace_overhead_pct"] = (quantile(walls, 0) - base) / base * 100
		}
		runProbes(rep, cfg)
		cost.record(m)

		rec := &recorder{epoch: r.epoch}
		for _, p := range passes {
			for _, s := range p.spans {
				rec.add(s)
			}
		}
		rep.note("spans=%d", rec.mark())
		if err := rec.write(cfg.outPath("trace-"+w.name+".json"), rep.header(cfg)); err != nil {
			rep.fail("write trace: %v", err)
		}
	}
	h := sha256.New()
	for _, f := range fs {
		h.Write(f.digest[:])
	}
	rep.setDigest(fmt.Sprintf("%x", h.Sum(nil)))
	return rep
}
