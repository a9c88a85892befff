// Command distfor runs an annotated non-rectangular nest on the
// fault-tolerant shard coordinator (internal/dist): the collapsed
// pc-range is split into shards executed under time-bounded leases with
// heartbeats, expired leases are reassigned, stragglers get speculative
// backups, failed shards retry/split/degrade, and committed progress
// lands in an fsynced checkpoint journal so an interrupted run resumes
// exactly where it stopped.
//
// Usage:
//
//	distfor [flags] [file.c]             (stdin when no file is given)
//
// The input is the same "#pragma omp ... collapse(c)" C fragment
// collapsetool accepts. Every nest parameter is bound to -n. The run
// folds an order-independent checksum over the recovered tuples (the
// same tuple hash the collapsed daemon uses), so two runs of the same
// nest — sharded, resumed, or sequential — must agree exactly.
//
// Flags:
//
//	-n N           parameter value (default 300)
//	-workers P     executor goroutines (default GOMAXPROCS)
//	-shards S      target shard count (default 8×workers)
//	-min-shard M   floor of the shard-splitting ladder (default 64)
//	-lease DUR     lease TTL; a silent executor is presumed dead after
//	               this and its shard reassigned (default 1s)
//	-speculate DUR straggler threshold for speculative backups
//	               (default lease/2; negative disables)
//	-retries R     per-shard retry budget before splitting (default 3)
//	-fallback      degrade to uncollapsed worksharing instead of failing
//	               when a shard exhausts retries and splits
//	-journal FILE  append-only checkpoint journal (fsync per commit)
//	-resume        replay FILE (fingerprint-validated, torn tail
//	               truncated) and execute only the uncovered intervals
//	-stats         print the recovery ledger and per-executor imbalance
//	-chaos-kill-every K
//	               crash every Kth shard attempt (injected panic) — a
//	               live demonstration of the recovery path
//	-bench         run the shard-scaling + recovery study instead
//	-quick         shrink the -bench problem size
//	-json FILE     write the -bench document (BENCH_PR8.json schema)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/omp"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

type options struct {
	n         int64
	workers   int
	shards    int
	minShard  int64
	lease     time.Duration
	speculate time.Duration
	retries   int
	fallback  bool
	journal   string
	resume    bool
	stats     bool
	killEvery int64
	bench     bool
	quick     bool
	jsonOut   string
	args      []string
}

func main() {
	var o options
	flag.Int64Var(&o.n, "n", 300, "parameter value bound to every nest parameter")
	flag.IntVar(&o.workers, "workers", omp.DefaultThreads(), "executor goroutines")
	flag.IntVar(&o.shards, "shards", 0, "target shard count (0: 8×workers)")
	flag.Int64Var(&o.minShard, "min-shard", 0, "floor of the shard-splitting ladder (0: 64)")
	flag.DurationVar(&o.lease, "lease", 0, "lease TTL before a silent executor's shard is reassigned (0: 1s)")
	flag.DurationVar(&o.speculate, "speculate", 0, "straggler age before a speculative backup launches (0: lease/2, negative: off)")
	flag.IntVar(&o.retries, "retries", 0, "per-shard retry budget before splitting (0: 3)")
	flag.BoolVar(&o.fallback, "fallback", false, "degrade to uncollapsed worksharing when the recovery ladder is exhausted")
	flag.StringVar(&o.journal, "journal", "", "append-only checkpoint journal path")
	flag.BoolVar(&o.resume, "resume", false, "replay -journal and execute only the uncovered intervals")
	flag.BoolVar(&o.stats, "stats", false, "print the recovery ledger and per-executor imbalance")
	flag.Int64Var(&o.killEvery, "chaos-kill-every", 0, "crash every Kth shard attempt (0: no chaos)")
	flag.BoolVar(&o.bench, "bench", false, "run the shard-scaling + recovery study instead of an input nest")
	flag.BoolVar(&o.quick, "quick", false, "shrink the -bench problem size")
	flag.StringVar(&o.jsonOut, "json", "", "write the -bench document to this file (BENCH_PR8.json schema)")
	flag.Parse()
	o.args = flag.Args()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "distfor:", err)
		if pe := faults.AsPanic(err); pe != nil {
			fmt.Fprintf(os.Stderr, "%s", pe.Stack)
		}
		os.Exit(1)
	}
}

func run(o options) error {
	if o.bench {
		return runBench(o)
	}
	if o.resume && o.journal == "" {
		return fmt.Errorf("-resume needs -journal")
	}

	var src []byte
	var err error
	switch len(o.args) {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(o.args[0])
	default:
		return fmt.Errorf("at most one input file")
	}
	if err != nil {
		return err
	}
	prog, err := cparse.Parse(string(src))
	if err != nil {
		return err
	}
	res, err := core.Collapse(prog.Nest, prog.CollapseCount, unrank.Options{})
	if err != nil {
		return err
	}
	params := map[string]int64{}
	for _, p := range prog.Nest.Params {
		params[p] = o.n
	}

	if o.killEvery > 0 {
		var attempts atomic.Int64
		restore := faults.Activate(&faults.Plan{
			OnShard: func(worker int, lo, hi int64) error {
				if attempts.Add(1)%o.killEvery == 0 {
					panic(fmt.Sprintf("chaos: injected executor crash at shard [%d,%d]", lo, hi))
				}
				return nil
			},
		})
		defer restore()
	}

	// Ctrl-C cancels the run cooperatively; with -journal, committed
	// progress survives for a later -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	tel := telemetry.New()
	cfg := dist.Config{
		Workers: o.workers, Shards: o.shards, MinShard: o.minShard,
		LeaseTTL: o.lease, SpeculateAfter: o.speculate, MaxRetries: o.retries,
		AllowFallback: o.fallback, Journal: o.journal, Resume: o.resume,
		Registry: tel,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "distfor: "+format+"\n", args...)
		},
	}
	start := time.Now()
	rep, err := dist.Run(ctx, res, params, cfg, func(worker int, pc int64, idx []int64) uint64 {
		return serve.TupleHash(idx)
	})
	elapsed := time.Since(start)
	if err != nil {
		if rep != nil && o.journal != "" && errors.Is(err, faults.ErrCanceled) {
			fmt.Fprintf(os.Stderr,
				"distfor: interrupted with %d/%d iterations committed; rerun with -resume -journal %s\n",
				rep.Executed+rep.Resumed, rep.Total, o.journal)
		}
		return err
	}

	fmt.Printf("distfor: %d iterations (%d executed, %d resumed) in %s across %d shards, checksum %#x\n",
		rep.Total, rep.Executed, rep.Resumed, elapsed.Round(time.Millisecond),
		rep.PlannedShards, rep.Sum)
	if rep.FellBack {
		fmt.Printf("distfor: recovery ladder exhausted — run degraded to uncollapsed worksharing\n")
	}
	if o.stats {
		printStats(rep, tel)
	}
	return nil
}

// printStats renders the recovery ledger and the per-executor
// imbalance summary of a finished run.
func printStats(rep *dist.Report, tel *telemetry.Registry) {
	fmt.Printf("\nrecovery ledger:\n")
	fmt.Printf("  completions        %d\n", rep.Completions)
	fmt.Printf("  duplicates dropped %d\n", rep.Duplicates)
	fmt.Printf("  lease expiries     %d\n", rep.LeaseExpiries)
	fmt.Printf("  speculative runs   %d (wins %d)\n", rep.SpeculativeRuns, rep.SpeculativeWins)
	fmt.Printf("  retries            %d\n", rep.Retries)
	fmt.Printf("  shard splits       %d\n", rep.Splits)
	imb := rep.Imbalance()
	fmt.Printf("\nper-executor imbalance (busy max/mean %.3f, cv %.3f):\n",
		imb.BusyImbalance, imb.BusyCV)
	for _, w := range rep.PerWorker {
		fmt.Printf("  worker %2d: %5d shards %10d iterations %12s busy\n",
			w.Worker, w.Shards, w.Iterations, w.Busy.Round(time.Microsecond))
	}
	snap := tel.Snapshot()
	if h, ok := snap.Histograms["dist.journal_fsync_seconds"]; ok && h.Count > 0 {
		fmt.Printf("\njournal: %d fsyncs, p50 %.3fms p99 %.3fms\n",
			h.Count, h.Quantile(0.5)*1e3, h.Quantile(0.99)*1e3)
	}
}

// runBench runs the shard-scaling + recovery study and renders or
// writes the BENCH_PR8 document.
func runBench(o options) error {
	rep, err := experiments.Dist(experiments.DistOptions{Quick: o.quick})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderDist(rep))
	if o.jsonOut != "" {
		if err := experiments.WriteDoc(o.jsonOut, rep.Doc()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "distfor: wrote %s\n", o.jsonOut)
	}
	return nil
}
