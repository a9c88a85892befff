// Command stresstool runs the differential stress harness of
// internal/stress: it generates seedable random affine nests
// (rectangular, triangular, shifted) and checks that every parallel
// execution — all four OpenMP-style schedules, every recovery mode of
// the unranker (float64 → exact search, table → exact search, exact
// search alone), optionally with injected root faults — visits exactly
// the sequential iteration set.
//
//	stresstool -seeds 16 -threads 4 -faults
//
// The tool exits non-zero on the first divergence, printing the seed,
// schedule and mode that produced it; reproduce a failure by rerunning
// with -start set to the reported seed and -seeds 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/omp"
	"repro/internal/stress"
)

func run(out io.Writer, seeds int, start int64, threads int, withFaults, verbose bool) error {
	if seeds < 1 {
		return fmt.Errorf("stresstool: -seeds must be >= 1")
	}
	var total stress.RunStats
	for s := start; s < start+int64(seeds); s++ {
		c, err := stress.NewCase(s)
		if err != nil {
			return err
		}
		st, err := stress.RunCase(c, threads, withFaults)
		total.Cases += st.Cases
		total.Runs += st.Runs
		total.Unrank.Add(st.Unrank)
		if err != nil {
			return fmt.Errorf("FAIL %s: %w", c.Name, err)
		}
		if verbose {
			fmt.Fprintf(out, "ok  %-28s total %-5d %s\n", c.Name, c.Total, st.Unrank.String())
		}
	}
	fmt.Fprintf(out, "stress ok: %s (threads=%d, faults=%v)\n", total.String(), threads, withFaults)
	return nil
}

func main() {
	var (
		seeds   = flag.Int("seeds", 8, "number of generated nests to test")
		start   = flag.Int64("start", 1, "first seed (seeds start..start+seeds-1)")
		threads = flag.Int("threads", omp.DefaultThreads(), "worker team size")
		faults  = flag.Bool("faults", false, "additionally sweep with injected root faults (float64 roots perturbed beyond correction range)")
		verbose = flag.Bool("v", false, "print one line per case")
	)
	flag.Parse()
	if err := run(os.Stdout, *seeds, *start, *threads, *faults, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "stresstool: %v\n", err)
		os.Exit(1)
	}
}
