package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"himap/internal/diag"
	"himap/internal/store"
)

// stageBucketsMS are the upper bounds (milliseconds, inclusive) of the
// per-stage latency histogram buckets; an implicit +Inf bucket follows.
var stageBucketsMS = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// stageHist is one per-stage latency histogram: lock-free on the record
// path (every bucket and the count/sum are atomics).
type stageHist struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	errs    atomic.Int64
	buckets []atomic.Int64 // len(stageBucketsMS)+1, last = overflow
}

func (h *stageHist) observe(wall time.Duration, failed bool) {
	h.count.Add(1)
	h.sumNS.Add(int64(wall))
	if failed {
		h.errs.Add(1)
	}
	ms := wall.Milliseconds()
	idx := len(stageBucketsMS)
	for i, le := range stageBucketsMS {
		if ms <= le {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
}

// Metrics is the service's counter registry. All request-path updates
// are atomic increments; the stage map only grows (one entry per
// pipeline stage name) under a mutex taken at most once per new stage.
type Metrics struct {
	start time.Time

	requests    atomic.Int64 // POST /v1/compile + /v1/compile-batch bodies accepted for dispatch
	compiles    atomic.Int64 // compiles actually executed (post-coalescing)
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	coalesced   atomic.Int64 // requests served by another request's compile
	rejected    atomic.Int64 // 429 admission rejections
	failures    atomic.Int64 // compiles that returned an error
	badRequests atomic.Int64 // 4xx request rejections (not admission)

	batches    atomic.Int64 // POST /v1/compile-batch envelopes accepted
	batchItems atomic.Int64 // batch items processed
	streams    atomic.Int64 // SSE stage-event streams started

	inFlight atomic.Int64 // compiles currently executing
	queued   atomic.Int64 // requests admitted but waiting for a worker slot

	mu     sync.Mutex
	stages map[string]*stageHist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:  time.Now(), //lint:ignore determinism uptime bookkeeping only; never reaches a response body or mapping
		stages: map[string]*stageHist{},
	}
}

func (m *Metrics) stage(name string) *stageHist {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.stages[name]
	if !ok {
		h = &stageHist{buckets: make([]atomic.Int64, len(stageBucketsMS)+1)}
		m.stages[name] = h
	}
	return h
}

// Tracer returns a diag.Tracer feeding every pipeline span's wall time
// into the per-stage histograms. Safe for concurrent emission; attach it
// to compiles with diag.MultiTracer alongside any caller tracer.
func (m *Metrics) Tracer() diag.Tracer {
	return diag.TracerFunc(func(s diag.Span) {
		m.stage(s.Stage).observe(s.Wall, s.Err != "")
	})
}

// StageSnapshot is one stage's histogram in the JSON rendering.
type StageSnapshot struct {
	Count   int64   `json:"count"`
	Errors  int64   `json:"errors,omitempty"`
	TotalMS float64 `json:"total_ms"`
	// Buckets[i] counts spans with wall <= stageBucketsMS[i]; the final
	// entry is the overflow bucket.
	Buckets []int64 `json:"buckets"`
}

// Snapshot is the GET /metrics JSON body.
type Snapshot struct {
	SchemaVersion int     `json:"schema_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests    int64 `json:"requests"`
	Compiles    int64 `json:"compiles"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Coalesced   int64 `json:"coalesced"`
	Rejected    int64 `json:"rejected"`
	Failures    int64 `json:"failures"`
	BadRequests int64 `json:"bad_requests"`

	Batches    int64 `json:"batches"`
	BatchItems int64 `json:"batch_items"`
	Streams    int64 `json:"streams"`

	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`

	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`

	// Store is the disk store's counter snapshot; nil when the server
	// runs without one.
	Store *store.Stats `json:"store,omitempty"`

	BucketBoundsMS []int64                  `json:"bucket_bounds_ms"`
	Stages         map[string]StageSnapshot `json:"stages,omitempty"`
}

// Snapshot captures the registry. Cache occupancy is stamped by the
// server (the registry does not know the cache).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		SchemaVersion: SchemaVersion,
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      m.requests.Load(),
		Compiles:      m.compiles.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
		Coalesced:     m.coalesced.Load(),
		Rejected:      m.rejected.Load(),
		Failures:      m.failures.Load(),
		BadRequests:   m.badRequests.Load(),

		Batches:    m.batches.Load(),
		BatchItems: m.batchItems.Load(),
		Streams:    m.streams.Load(),

		InFlight: m.inFlight.Load(),
		Queued:   m.queued.Load(),

		BucketBoundsMS: stageBucketsMS,
		Stages:         map[string]StageSnapshot{},
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, h := range m.stages {
		ss := StageSnapshot{
			Count:   h.count.Load(),
			Errors:  h.errs.Load(),
			TotalMS: float64(h.sumNS.Load()) / 1e6,
			Buckets: make([]int64, len(h.buckets)),
		}
		for i := range h.buckets {
			ss.Buckets[i] = h.buckets[i].Load()
		}
		s.Stages[name] = ss
	}
	return s
}

// WriteText renders the snapshot in expvar-style "name value" lines,
// sorted, with per-stage histogram lines in Prometheus label form.
func (s Snapshot) WriteText(w io.Writer) {
	lines := []string{
		fmt.Sprintf("himapd_uptime_seconds %.3f", s.UptimeSeconds),
		fmt.Sprintf("himapd_requests_total %d", s.Requests),
		fmt.Sprintf("himapd_compiles_total %d", s.Compiles),
		fmt.Sprintf("himapd_cache_hits_total %d", s.CacheHits),
		fmt.Sprintf("himapd_cache_misses_total %d", s.CacheMisses),
		fmt.Sprintf("himapd_coalesced_total %d", s.Coalesced),
		fmt.Sprintf("himapd_rejected_total %d", s.Rejected),
		fmt.Sprintf("himapd_failures_total %d", s.Failures),
		fmt.Sprintf("himapd_bad_requests_total %d", s.BadRequests),
		fmt.Sprintf("himapd_batches_total %d", s.Batches),
		fmt.Sprintf("himapd_batch_items_total %d", s.BatchItems),
		fmt.Sprintf("himapd_streams_total %d", s.Streams),
		fmt.Sprintf("himapd_in_flight %d", s.InFlight),
		fmt.Sprintf("himapd_queued %d", s.Queued),
		fmt.Sprintf("himapd_cache_entries %d", s.CacheEntries),
		fmt.Sprintf("himapd_cache_bytes %d", s.CacheBytes),
	}
	if s.Store != nil {
		lines = append(lines,
			fmt.Sprintf("himapd_store_entries %d", s.Store.Entries),
			fmt.Sprintf("himapd_store_bytes %d", s.Store.Bytes),
			fmt.Sprintf("himapd_store_hits_total %d", s.Store.Hits),
			fmt.Sprintf("himapd_store_misses_total %d", s.Store.Misses),
			fmt.Sprintf("himapd_store_corrupt_total %d", s.Store.Corrupt),
			fmt.Sprintf("himapd_store_puts_total %d", s.Store.Puts))
	}
	for name, h := range s.Stages {
		lines = append(lines,
			fmt.Sprintf("himapd_stage_count{stage=%q} %d", name, h.Count),
			fmt.Sprintf("himapd_stage_errors{stage=%q} %d", name, h.Errors),
			fmt.Sprintf("himapd_stage_ms_sum{stage=%q} %.3f", name, h.TotalMS))
		for i, n := range h.Buckets {
			le := "+Inf"
			if i < len(s.BucketBoundsMS) {
				le = fmt.Sprintf("%d", s.BucketBoundsMS[i])
			}
			lines = append(lines, fmt.Sprintf("himapd_stage_ms_bucket{stage=%q,le=%q} %d", name, le, n))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// MarshalJSONIndent renders the snapshot as indented JSON.
func (s Snapshot) MarshalJSONIndent() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return append(b, '\n')
}
