package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"himap"
	"himap/internal/serve"
)

// allocMeter reads the runtime's cumulative heap allocation counters
// without stopping the world.
type allocMeter struct{ s [2]metrics.Sample }

func newAllocMeter() *allocMeter {
	m := &allocMeter{}
	m.s[0].Name = "/gc/heap/allocs:bytes"
	m.s[1].Name = "/gc/heap/allocs:objects"
	return m
}

func (m *allocMeter) read() (bytes, objects uint64) {
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64()
}

// peakRSSMB is the process's resident-set high-water mark. Off Linux it
// falls back to the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// facts are what the first successful compile of an item established;
// every later compile of it must reproduce the digest.
type facts struct {
	set            bool
	digest         [sha256.Size]byte
	ii             int
	util, eff      float64
	bitstreamBytes int
	uniq, clusters int
	proved, exact  bool
}

// passResult is one run over the item list.
type passResult struct {
	wallMS                []float64 // per item; 0 where the compile failed
	allocBytes, allocObjs uint64
	memoHits, memoMisses  int64
	compiles              int
	spans                 []span // what a traced pass recorded
}

func (p passResult) totalS() float64 { return sumOf(p.wallMS) / 1e3 }

// compileRunner drives one compile workload.
type compileRunner struct {
	w     workload
	cfg   runConfig
	items []item
	first []facts
	alloc *allocMeter
	rec   *recorder
	rep   *report
}

func layerOf(m himap.Mapper) string {
	switch m {
	case himap.MapperConventional:
		return "baseline"
	case himap.MapperExact:
		return "exact"
	}
	return "himap"
}

// compiled is one CompileRequest call as the harness saw it.
type compiled struct {
	res                   *himap.Result
	wall                  time.Duration
	allocBytes, allocObjs uint64
	memo                  *himap.Memo
}

// compile runs one item cold (fresh Memo) with the wall clock and the
// allocation counters read immediately around the call.
func (r *compileRunner) compile(it item, workers int, traced bool) (compiled, error) {
	req := it.req
	memo := himap.NewMemo()
	req.Options.Memo = memo
	req.Options.Workers = workers
	var c *call
	if traced {
		c = r.rec.call(layerOf(req.Mapper), it.name)
		req.Options.Tracer, req.Baseline.Tracer, req.Exact.Tracer = c, c, c
	}
	b0, o0 := r.alloc.read()
	t0 := time.Now()
	res, err := himap.CompileRequest(context.Background(), req)
	wall := time.Since(t0)
	b1, o1 := r.alloc.read()
	if traced {
		c.done(err)
	}
	return compiled{res, wall, b1 - b0, o1 - o0, memo}, err
}

// check digests the emitted bitstream and holds it against the item's
// first compile (same process: every pass, the traced passes and the
// gate must all agree).
func (r *compileRunner) check(i int, res *himap.Result) {
	bs, err := himap.EncodeBitstream(res.Config)
	if err != nil {
		r.rep.fail("%s: encode bitstream: %v", r.items[i].name, err)
		return
	}
	digest := sha256.Sum256(serve.BitstreamBytes(bs))
	f := &r.first[i]
	if !f.set {
		*f = facts{
			set: true, digest: digest, ii: res.Config.II, util: res.Utilization,
			eff:            himap.PowerModelFor(res.Fabric).EfficiencyMOPSPerMW(res.Config),
			bitstreamBytes: bs.TotalBytes(),
			uniq:           res.UniqueIters, clusters: len(res.ByCluster),
			exact:  res.Exact != nil,
			proved: res.Optimality != nil && res.Optimality.ProvedMinimal,
		}
		return
	}
	if digest != f.digest {
		r.rep.fail("%s: bitstream digest changed between compiles of the same input", r.items[i].name)
	}
}

// pass compiles the list once. With gate set, every result is also put
// through the correctness gate before it is dropped; the gate's time and
// memory fall between the compiles' own clock and counter readings.
func (r *compileRunner) pass(traced bool, gate *gateCost) passResult {
	runtime.GC()
	p := passResult{}
	mark := r.rec.mark()
	for i, it := range r.items {
		c, err := r.compile(it, r.w.workers, traced)
		if err != nil {
			r.rep.fail("%s: %v", it.name, err)
			p.wallMS = append(p.wallMS, 0)
			continue
		}
		p.wallMS = append(p.wallMS, ms(c.wall))
		p.allocBytes += c.allocBytes
		p.allocObjs += c.allocObjs
		h, m := c.memo.Stats()
		p.memoHits += h
		p.memoMisses += m
		p.compiles++
		r.check(i, c.res)
		if gate != nil {
			r.gate(i, c.res, gate)
		}
	}
	p.spans = r.rec.since(mark)
	return p
}

// setup builds the inputs and makes one untimed warm-up pass; it returns
// how long that took.
func (r *compileRunner) setup() float64 {
	t0 := time.Now()
	r.items = r.w.items(r.cfg.tiny)
	if r.first == nil {
		r.first = make([]facts, len(r.items))
	}
	r.pass(false, nil)
	return time.Since(t0).Seconds()
}

// gateCost is what the correctness gate itself spent, in ms.
type gateCost struct{ simMS, encodeMS, cfgValidateMS float64 }

func (c gateCost) record(m map[string]float64) {
	m["sim.validate.ms"], m["arch.encode.ms"], m["arch.config_validate.ms"] = c.simMS, c.encodeMS, c.cfgValidateMS
}

// gate checks one fresh mapping, outside every timed region: it is (1)
// simulated cycle-accurately against the kernel's golden executor, which
// shares no code with the mappers, (2) held to the exact mapper's static
// II lower bound, (3) re-validated structurally and re-encoded, and (4)
// for Workers > 1, compared bit for bit with the Workers = 1 mapping.
func (r *compileRunner) gate(i int, res *himap.Result, cost *gateCost) {
	name := r.items[i].name
	t0 := time.Now()
	if err := himap.Validate(res, 2, r.cfg.seed); err != nil {
		r.rep.fail("gate %s: simulation disagrees with the golden executor: %v", name, err)
	}
	cost.simMS += ms(time.Since(t0))

	lb, err := himap.ExactLowerBound(res.Kernel, res.Fabric, res.Block)
	if err != nil {
		r.rep.fail("gate %s: lower bound: %v", name, err)
	} else if res.Config.II < lb {
		r.rep.fail("gate %s: II %d undercuts the static lower bound %d", name, res.Config.II, lb)
	}

	t0 = time.Now()
	if err := res.Config.Validate(); err != nil {
		r.rep.fail("gate %s: config invalid: %v", name, err)
	}
	cost.cfgValidateMS += ms(time.Since(t0))

	t0 = time.Now()
	if _, err := himap.EncodeBitstream(res.Config); err != nil {
		r.rep.fail("gate %s: encode: %v", name, err)
	}
	cost.encodeMS += ms(time.Since(t0))

	if r.w.workers != 1 {
		seq, err := r.compile(r.items[i], 1, false)
		if err != nil {
			r.rep.fail("gate %s at Workers=1: %v", name, err)
			return
		}
		r.check(i, seq.res)
	}
}

// digest folds the per-item digests into the workload's mapping_digest.
func (r *compileRunner) digest() string {
	h := sha256.New()
	for _, f := range r.first {
		h.Write(f.digest[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// quality fills the deterministic end-to-end metrics from the facts.
func qualityMetrics(fs []facts, out map[string]float64) {
	var iis, utils, effs []float64
	kb := 0.0
	for _, f := range fs {
		if !f.set {
			continue
		}
		iis = append(iis, float64(f.ii))
		utils = append(utils, f.util)
		effs = append(effs, f.eff)
		kb += float64(f.bitstreamBytes) / 1024
	}
	out["ii_geomean"] = geomean(iis)
	out["utilization_mean"] = mean(utils)
	out["mops_per_mw_geomean"] = geomean(effs)
	out["bitstream_kb"] = kb
}

func runCompileWorkload(w workload, cfg runConfig) *report {
	rep := newReport(w.name)
	r := &compileRunner{w: w, cfg: cfg, alloc: newAllocMeter(), rec: newRecorder(), rep: rep}
	minPasses, minPairs := 3, 2
	if cfg.tiny {
		minPasses, minPairs = 2, 1
	}
	rep.note("workers=%d baseline_chains=1 memo=fresh-per-compile", w.workers)

	if !cfg.trace {
		var setups []float64
		for i := 0; i < 3; i++ {
			setups = append(setups, r.setup())
		}
		// Timed passes fill --seconds; the last one also carries the gate,
		// and the peak-RSS reading is taken just before it so that the
		// simulator's memory is not reported as the compiler's.
		var passes []passResult
		start := time.Now()
		for len(passes) < minPasses-1 || time.Since(start).Seconds()+passes[len(passes)-1].totalS() < cfg.seconds {
			passes = append(passes, r.pass(false, nil))
		}
		rss := peakRSSMB()
		passes = append(passes, r.pass(false, &gateCost{}))
		rep.attempted += len(passes) * len(r.items)

		// Time metrics are built from each item's best pass. On a shared
		// host a pass is slowed by whatever else runs there, in bursts of
		// seconds; the fastest of N executions of a deterministic compile is
		// the estimate of its own cost that such bursts disturb least (the
		// median of pass totals moved 3x as much between runs).
		best := bestPerItem(passes, len(r.items))
		var totals, allocs []float64
		for _, p := range passes {
			totals = append(totals, p.totalS())
			allocs = append(allocs, float64(p.allocBytes)/1e6)
		}
		m := rep.metrics
		m["setup_s"] = median(setups)
		m["compile_s"] = sumOf(best) / 1e3
		m["compile_slowest_ms"] = quantile(best, 1)
		m["alloc_mb"] = median(allocs)
		m["peak_rss_mb"] = rss
		qualityMetrics(r.first, m)
		q1, q3 := quartiles(totals)
		rep.note("passes=%d compiles_per_pass=%d setups=%d; whole-pass totals: median %.4f s, p25 %.4f, p75 %.4f",
			len(passes), len(r.items), len(setups), median(totals), q1, q3)
		rows := map[string]float64{}
		for i, it := range r.items {
			rows[it.name] = best[i]
			rep.note("  %-28s best of %d %9.3f ms  II %-3d U %.2f", it.name, len(passes), best[i], r.first[i].ii, r.first[i].util)
		}
		rep.detail["item_best_ms"] = rows
	} else {
		r.setup()
		var plain, traced []passResult
		start := time.Now()
		for len(traced) < minPairs || time.Since(start).Seconds() < cfg.seconds/2 {
			plain = append(plain, r.pass(false, nil))
			traced = append(traced, r.pass(true, nil))
		}
		r.layerMetrics(plain, traced)
		runProbes(rep, cfg)
		var cost gateCost
		r.pass(false, &cost)
		rep.attempted += (len(plain) + len(traced) + 1) * len(r.items)
		cost.record(rep.metrics)
		rep.note("traced_passes=%d untraced_passes=%d spans=%d", len(traced), len(plain), r.rec.mark())
		path := cfg.outPath("trace-" + w.name + ".json")
		if err := r.rec.write(path, rep.header(cfg)); err != nil {
			rep.fail("write trace: %v", err)
		}
	}
	rep.setDigest(r.digest())
	return rep
}

// layerMetrics reduces the traced passes to the per-layer numbers: stage
// walls and counters are summed per pass and the median pass reported.
func (r *compileRunner) layerMetrics(plain, traced []passResult) {
	perPass := map[string][]float64{}
	for _, p := range traced {
		sums := map[string]float64{}
		children := map[int][]interval{}
		var calls []span
		for _, s := range p.spans {
			if s.Parent == 0 {
				calls = append(calls, s)
				continue
			}
			children[s.Parent] = append(children[s.Parent], interval{s.start, s.end})
			sums[s.Name+".ms"] += float64(s.end-s.start) / 1e6
			switch s.Name {
			case "himap.block-derive":
				sums["himap.attempts"]++
			case "himap.route":
				sums["himap.route_rounds"] += float64(s.Counters["rounds"])
				sums["himap.canonical_nets"] += float64(s.Counters["nets"])
			case "baseline.place":
				sums["baseline.ii_attempts"]++
			case "exact.search":
				sums["exact.ii_attempts"]++
			}
		}
		himapCompiles := 0.0
		for _, c := range calls {
			if strings.HasPrefix(c.Name, "himap.") {
				himapCompiles++
				sums["himap.self.ms"] += float64(selfTime(interval{c.start, c.end}, children[c.ID])) / 1e6
			}
		}
		if a := sums["himap.attempts"]; a > 0 {
			sums["himap.attempt_success_ratio"] = himapCompiles / a
		}
		sums["himap.memo_hits"] = float64(p.memoHits)
		sums["himap.memo_misses"] = float64(p.memoMisses)
		if p.compiles > 0 {
			sums["himap.allocs_per_compile"] = float64(p.allocObjs) / float64(p.compiles)
		}
		for k, v := range sums {
			perPass[k] = append(perPass[k], v)
		}
	}
	m := r.rep.metrics
	for k, vs := range perPass {
		// A key absent from some pass (a failed compile) counts as 0 there.
		for len(vs) < len(traced) {
			vs = append(vs, 0)
		}
		m[k] = median(vs)
	}
	uniq, clusters, proved, exact := 0.0, 0.0, 0.0, 0.0
	for _, f := range r.first {
		uniq += float64(f.uniq)
		clusters += float64(f.clusters)
		if f.exact {
			exact++
			if f.proved {
				proved++
			}
		}
	}
	m["himap.unique_iters"], m["himap.clusters"] = uniq, clusters
	if clusters > 0 {
		m["himap.unique_ratio"] = uniq / clusters
	}
	if exact > 0 {
		m["exact.proved_share"] = proved / exact
	}
	if base := sumOf(bestPerItem(plain, len(r.items))); base > 0 {
		m["trace_overhead_pct"] = (sumOf(bestPerItem(traced, len(r.items))) - base) / base * 100
	}
}

// bestPerItem is each item's fastest wall time over the passes, in ms
// (0 for an item that never compiled).
func bestPerItem(passes []passResult, n int) []float64 {
	best := make([]float64, n)
	for _, p := range passes {
		foldBest(best, p.wallMS)
	}
	return best
}
