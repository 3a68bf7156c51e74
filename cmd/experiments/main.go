// Command experiments regenerates the paper's tables and figures:
//
//	experiments -table1                 # Table I: kernel categorization
//	experiments -table2                 # Table II: unique iterations
//	experiments -fig7 -sizes 4,8,16,32  # Fig 7: U / MOPS / MOPS/mW vs BHC
//	experiments -fig8 -bs 2,4,8,16,32   # Fig 8: compile time vs block size
//	experiments -envelope               # all kernels on a 64x64 array
//	experiments -explore                # design-space sweep over fabric candidates
//	experiments -gap                    # HiMap and SA II against exact's proved minimum
//	experiments -all                    # -table1 -table2 -fig7 -fig8
//
// Measured-vs-paper values are recorded in EXPERIMENTS.md; results/
// holds the outputs, and scripts/check.sh diffs the deterministic ones
// (-table1 -table2, -envelope, -explore, -gap) against a fresh run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"himap"
	"himap/internal/exp"
)

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bad integer list %q\n", s)
			os.Exit(1)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	var (
		table1  = flag.Bool("table1", false, "regenerate Table I")
		table2  = flag.Bool("table2", false, "regenerate Table II")
		fig7    = flag.Bool("fig7", false, "regenerate Figure 7")
		fig8    = flag.Bool("fig8", false, "regenerate Figure 8")
		env     = flag.Bool("envelope", false, "large-array (64x64) scalability run")
		all     = flag.Bool("all", false, "regenerate everything")
		sizes   = flag.String("sizes", "4,8,16,32", "CGRA sizes for Fig 7")
		bs      = flag.String("bs", "2,3,4,5,6,8,10,12,16,20,32,64", "block sizes for Fig 8")
		budget  = flag.Duration("budget", 20*time.Second, "baseline time budget per point")
		t2size  = flag.Int("table2size", 8, "CGRA size for Table II")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent experiment points (1 = sequential)")
		explore = flag.Bool("explore", false, "design-space sweep: rank the fabric candidate set per kernel by MOPS/mW")
		expSize = flag.Int("explore-size", 8, "array size for the -explore candidate set")
		gap     = flag.Bool("gap", false, "quality-gap table: exact vs HiMap vs SA II on small kernels")
		gapSize = flag.Int("gap-size", 4, "array size for the -gap instances")
		gapBS   = flag.Int("gap-block", 2, "uniform block size for the -gap exact/SA instances")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *fig7, *fig8 = true, true, true, true
	}
	if !*table1 && !*table2 && !*fig7 && !*fig8 && !*env && !*explore && !*gap {
		flag.Usage()
		os.Exit(2)
	}

	if *table1 {
		fmt.Println(exp.TableI())
	}
	if *table2 {
		rows, err := exp.TableII(*t2size, exp.Config{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatTableII(rows))
	}
	// progress names the figure on each row it writes to stderr.
	progress := func(fig string) func(string) {
		return func(row string) { fmt.Fprintf(os.Stderr, "%s point done: %s\n", fig, row) }
	}
	if *fig7 {
		pts, err := exp.Fig7(exp.Config{Sizes: parseInts(*sizes), BaselineBudget: *budget, Workers: *workers, Progress: progress("fig7")})
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatFig7(pts))
	}
	if *fig8 {
		pts, err := exp.Fig8(exp.Config{Sizes: parseInts(*bs), BaselineBudget: *budget, Workers: *workers, Progress: progress("fig8")})
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatFig8(pts))
	}
	if *env {
		// Compile times go to the progress lines: stdout is deterministic.
		pts, err := exp.Envelope(exp.Config{Workers: *workers, Progress: progress("envelope")})
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatEnvelope(pts))
	}
	if *explore {
		pts := exp.Explore(exp.ExploreConfig{
			Fabrics: himap.ExploreFabrics(*expSize, *expSize),
			Workers: *workers,
		})
		fmt.Println(exp.FormatExplore(pts))
	}
	if *gap {
		rows, err := exp.ExactGap(*gapSize, *gapBS, *budget)
		if err != nil {
			fatal(err)
		}
		exp.WriteGapTable(os.Stdout, rows)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
