// Command bench is the repository's performance ledger: six workloads,
// nine end-to-end metrics with regression bounds, and per-layer metrics
// from a traced run and direct probes. See README.md in this directory.
//
//	bash bench/run.sh --workload scale64 --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh -runs 10 -out bench/out/a.json       # every workload
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
//
// A single-workload run prints what it measured and, as its last line,
// one JSON object {correct, attempted, failed, metrics}; it exits 1 when
// any operation failed or any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// runConfig is one single-workload run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input to its smallest form for the smoke test.
	tiny   bool
	outDir string
}

func (c runConfig) outPath(name string) string { return filepath.Join(c.outDir, name) }

// tmpRoot is where store directories live for the length of a pass.
func (c runConfig) tmpRoot() string {
	dir := filepath.Join(c.outDir, "tmp")
	os.MkdirAll(dir, 0o755) // a failure surfaces at the MkdirTemp that follows
	return dir
}

// report is what one run measured.
type report struct {
	workload  string
	attempted int
	metrics   map[string]float64
	detail    map[string]any

	mu       sync.Mutex // fail is called from the serve_mix client goroutines
	failed   int
	failures []string
	notes    []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]float64{}, detail: map[string]any{}}
}

func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setDigest records the workload's mapping_digest: printed, and kept in
// the detail file for -compare, but never pinned to a golden value.
func (r *report) setDigest(digest string) {
	r.detail["mapping_digest"] = digest
	r.note("mapping_digest=%s", digest)
}

// header states the method behind the numbers.
func (r *report) header(cfg runConfig) map[string]any {
	return map[string]any{
		"workload": r.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runWorkload executes one workload and returns its report.
func runWorkload(w workload, cfg runConfig) *report {
	if w.items == nil {
		return runServeMix(w, cfg)
	}
	return runCompileWorkload(w, cfg)
}

// emit prints the report for people, writes the detail file, and prints
// the result line. It returns the process exit code.
func emit(rep *report, cfg runConfig) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if rep.attempted > 0 {
			rep.metrics["failed_share"] = float64(rep.failed) / float64(rep.attempted)
		}
	}
	hdr := rep.header(cfg)
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%t GOMAXPROCS=%d nproc=%d %s\n",
		rep.workload, cfg.seed, cfg.seconds, cfg.trace, hdr["gomaxprocs"], hdr["nproc"], hdr["go"])
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := rep.metrics[d.name]
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("%-36s %14.6g %-8s (%s is better)\n", d.name, v, d.unit, d.better)
	}
	for _, f := range rep.failures {
		fmt.Println("FAILED:", f)
	}
	res.Correct = rep.failed == 0 && rep.attempted > 0

	detail := map[string]any{"header": hdr, "notes": rep.notes, "failures": rep.failures, "result": res}
	for k, v := range rep.detail {
		detail[k] = v
	}
	name := fmt.Sprintf("run-%s-trace%d.json", rep.workload, b2i(cfg.trace))
	if err := writeJSON(cfg.outPath(name), detail); err != nil {
		fmt.Fprintln(os.Stderr, "bench: detail file:", err)
	}
	os.RemoveAll(filepath.Join(cfg.outDir, "tmp"))

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only called on the harness's own plain structs
	}
	return b
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the serve_mix request order and of the validation inputs")
		seconds = flag.Float64("seconds", 8, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run and probes")
		runs    = flag.Int("runs", 1, "with -workload all: end-to-end runs per workload, at seeds seed, seed+1, ...")
		out     = flag.String("out", "", "with -workload all: write the run set here, for -compare")
		compare = flag.Bool("compare", false, "compare two run sets: -compare a.json b.json")
		outDir  = flag.String("outdir", "bench/out", "directory for trace and detail files")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name == "all":
		os.Exit(runAll(*seed, *seconds, *runs, *out, *outDir))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	os.Exit(emit(runWorkload(w, cfg), cfg))
}
