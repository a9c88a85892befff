// Command benchdiff compares two BENCH_*.json benchmark documents of
// one suite (written by `benchfig -json` or `loadgen -json`) and exits
// non-zero when any row regresses beyond a threshold. It is the engine
// of the `make gate-<suite>` targets.
//
//	benchdiff -old BENCH_PR4.json -new BENCH_NEW.json
//	benchdiff -old a.json -new b.json -threshold 10
//	benchdiff -old a.json -new b.json -metrics speedup   # ratio-only gate
//
// Rows pair by (case, metric) and compare in their own direction (costs
// regress up, ratios and throughputs down); rows whose params differ
// between the runs are skipped with a note rather than compared.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchcmp"
)

type options struct {
	oldPath   string
	newPath   string
	threshold float64
	metrics   string // comma-separated metric-name substrings
}

func main() {
	var o options
	flag.StringVar(&o.oldPath, "old", "", "baseline BENCH_*.json")
	flag.StringVar(&o.newPath, "new", "", "candidate BENCH_*.json")
	flag.Float64Var(&o.threshold, "threshold", 20, "allowed worsening percent before a metric counts as a regression")
	flag.StringVar(&o.metrics, "metrics", "", "only compare metrics whose name contains one of these comma-separated substrings")
	flag.Parse()

	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the comparison and returns the process exit code:
// 0 clean, 1 regression found. Usage and I/O errors return err (exit 2).
func run(o options) (int, error) {
	if o.oldPath == "" || o.newPath == "" {
		return 0, fmt.Errorf("both -old and -new are required")
	}
	oldRun, err := benchcmp.Load(o.oldPath)
	if err != nil {
		return 0, err
	}
	newRun, err := benchcmp.Load(o.newPath)
	if err != nil {
		return 0, err
	}
	opts := benchcmp.Options{ThresholdPct: o.threshold}
	if o.metrics != "" {
		opts.MetricFilter = strings.Split(o.metrics, ",")
	}
	rep, err := benchcmp.Compare(oldRun, newRun, opts)
	if err != nil {
		return 0, err
	}
	benchcmp.Render(os.Stdout, rep)
	if n := len(rep.Regressions()); n > 0 {
		fmt.Printf("benchdiff: FAIL — %d metric(s) regressed beyond threshold\n", n)
		return 1, nil
	}
	fmt.Println("benchdiff: OK")
	return 0, nil
}
