package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// runSet is the file -out writes and -compare reads: for every workload
// the value of each end-to-end metric in each run, and the per-layer
// metrics of one traced run. Claim stays null: a run set states
// measurements, never a gain.
type runSet struct {
	Header    map[string]any         `json:"header"`
	Claim     *string                `json:"claim"`
	Workloads map[string]*workloadRS `json:"workloads"`
}

type workloadRS struct {
	Seeds    []int64              `json:"seeds"`
	EndToEnd map[string][]float64 `json:"end_to_end"`
	PerLayer map[string]float64   `json:"per_layer"`
	Digest   string               `json:"mapping_digest"`
}

// child runs one workload in a fresh process of this binary, so that
// peak_rss_mb and set-up belong to that workload alone, and returns the
// parsed result line.
func child(name string, seed int64, seconds float64, trace int, outDir string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-outdir", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // waits for the child to exit
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "FAILED:") {
			fmt.Println("  ", line)
		} else if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v, exit: %v)", name, err, runErr)
	}
	return res, nil
}

func runAll(seed int64, seconds float64, runs int, out, outDir string) int {
	set := runSet{
		Header: map[string]any{
			"seed": seed, "seconds": seconds, "runs": runs,
			"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		},
		Workloads: map[string]*workloadRS{},
	}
	exit := 0
	for _, w := range workloads {
		ws := &workloadRS{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		set.Workloads[w.name] = ws
		for r := 0; r < runs; r++ {
			res, err := child(w.name, seed+int64(r), seconds, 0, outDir)
			if err != nil || !res.Correct {
				fmt.Printf("%s seed %d: INCORRECT (%d of %d failed) %v\n", w.name, seed+int64(r), res.Failed, res.Attempted, err)
				exit = 1
			}
			ws.Seeds = append(ws.Seeds, seed+int64(r))
			for _, d := range endToEnd {
				ws.EndToEnd[d.name] = append(ws.EndToEnd[d.name], res.Metrics[d.name].Value)
			}
		}
		res, err := child(w.name, seed, seconds, 1, outDir)
		if err != nil || !res.Correct {
			fmt.Printf("%s traced: INCORRECT (%d of %d failed) %v\n", w.name, res.Failed, res.Attempted, err)
			exit = 1
		}
		for _, d := range perLayer {
			ws.PerLayer[d.name] = res.Metrics[d.name].Value
		}
		var detail struct {
			Digest string `json:"mapping_digest"`
		}
		if b, err := os.ReadFile(filepath.Join(outDir, "run-"+w.name+"-trace1.json")); err == nil {
			json.Unmarshal(b, &detail) // a missing digest prints as empty
		}
		ws.Digest = detail.Digest
		printWorkload(os.Stdout, w, ws)
	}
	printParRatio(os.Stdout, outDir)
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println("run set written to", out)
	}
	return exit
}

func printWorkload(w io.Writer, wl workload, ws *workloadRS) {
	fmt.Fprintf(w, "\n== %s — %s\n   mapping_digest %s, seeds %v\n", wl.name, wl.why, ws.Digest, ws.Seeds)
	for _, d := range endToEnd {
		vs := ws.EndToEnd[d.name]
		fmt.Fprintf(w, "   %-22s %12.6g %-8s %s is better, bound %.4g%%, spread %.2f%% over %d runs\n",
			d.name, median(vs), d.unit, d.better, d.bound*100, spread(vs)*100, len(vs))
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "     %-34s %14.6g %s\n", d.name, ws.PerLayer[d.name], d.unit)
	}
}

// printParRatio reports paper_par against paper_small per kernel-size
// row, from the detail files of the last untraced run of each.
func printParRatio(w io.Writer, outDir string) {
	rows := func(name string) map[string]float64 {
		var d struct {
			Rows map[string]float64 `json:"item_best_ms"`
		}
		if b, err := os.ReadFile(filepath.Join(outDir, "run-"+name+"-trace0.json")); err == nil {
			json.Unmarshal(b, &d) // an unreadable file leaves the table empty
		}
		return d.Rows
	}
	small, par := rows("paper_small"), rows("paper_par")
	if len(small) == 0 || len(par) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== paper_par / paper_small, best compile ms per row (Workers=%d vs 1)\n", parWorkers())
	for _, it := range paperItems(false) {
		if s, p := small[it.name], par[it.name]; s > 0 {
			fmt.Fprintf(w, "   %-12s %9.3f / %9.3f = %.2fx\n", it.name, p, s, p/s)
		}
	}
}

// verdict classifies one workload x metric pair of two run sets.
// Positive delta means b is worse than a, as a share of a's median.
func verdict(d metricDef, a, b []float64) (status string, delta, spr float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / math.Abs(ma)
	}
	if d.better == "higher" {
		delta = -delta
	}
	spr = math.Max(spread(a), spread(b))
	switch {
	// The acceptance procedure holds every spread to its bound except
	// that of setup_s, which is only compared median to median.
	case spr > d.bound && d.name != "setup_s":
		return "unresolved", delta, spr
	case delta > d.bound:
		return "regressed", delta, spr
	}
	return "ok", delta, spr
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints one row per workload x end-to-end metric and
// returns 1 if any pair is regressed or unresolved.
func compareSets(w io.Writer, pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareRunSets(w, a, b)
}

func compareRunSets(w io.Writer, a, b *runSet) int {
	exit := 0
	var ratios []float64
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-14s missing from one run set\n", wl.name)
			exit = 1
			continue
		}
		fmt.Fprintf(w, "%s (%d vs %d runs)\n", wl.name, len(wa.Seeds), len(wb.Seeds))
		if wa.Digest != wb.Digest {
			fmt.Fprintf(w, "   mapping_digest differs: %.12s -> %.12s\n", wa.Digest, wb.Digest)
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			status, delta, spr := verdict(d, va, vb)
			if status != "ok" {
				exit = 1
			}
			fmt.Fprintf(w, "   %-22s %12.6g -> %12.6g %-8s %+7.2f%% worse (bound %.4g%%, spread %.2f%%)  %s\n",
				d.name, median(va), median(vb), d.unit, delta*100, d.bound*100, spr*100, status)
			if d.name == "compile_s" && median(va) > 0 {
				ratios = append(ratios, median(vb)/median(va))
			}
		}
	}
	fmt.Fprintf(w, "summary: compile_s b/a geomean over workloads %.4f (rows above decide, not this line)\n", geomean(ratios))
	return exit
}
