// Command collapsetool is the source-to-source transformer of the paper
// (§VII): it reads a C fragment in which a non-rectangular loop nest is
// annotated with "#pragma omp ... collapse(c)", computes the ranking
// Ehrhart polynomial of the c outermost loops, inverts it symbolically,
// and prints the collapsed program with the original indices recovered
// from the single loop counter pc.
//
// Usage:
//
//	collapsetool [flags] [file.c]        (stdin when no file is given)
//
// Flags:
//
//	-scheme per-iteration|first-iteration|chunked|simd|warp
//	        recovery scheme of the generated code (default first-iteration,
//	        the paper's §V cost-minimised form)
//	-chunk N   chunk size for the chunked scheme (default 64)
//	-vlength N vector length for the simd scheme (default 8)
//	-warp N    warp width for the warp scheme (default 32)
//	-go        also emit a runnable serial Go rendition
//	-report    print the analysis (ranking polynomial, total count,
//	           root candidates and the selected convenient root)
//	-check N   self-check the transformation for parameter value N
//	           (verifies rank/unrank bijection by enumeration) and print
//	           the recovery statistics of the run
//	-stats     execute the collapsed nest on the goroutine runtime and
//	           print compile-pipeline phase times, per-thread iteration
//	           counts, recovery/correction counters (float64 radical
//	           evaluations, fallbacks to exact search, searches and exact
//	           big-integer evaluation paths), a load-imbalance summary,
//	           and the collapse-cache record (cold compile vs warm hit
//	           times, hits/misses counters)
//	-n N       parameter value for the -stats run (default 300)
//	-threads P team size for the -stats run (default GOMAXPROCS)
//	-sched S   schedule for the -stats run, overriding the pragma
//	           clause: static|static,N|dynamic[,N]|guided[,N]|auto
//	           (a clause outside this grammar is an error).
//	           "auto" hands the choice of (schedule, chunk, workers) to
//	           the autotuner — a simulator-backed planner over the
//	           nest's measured work vector — and the report prints the
//	           chosen triple with predicted-vs-actual makespan and the
//	           calibration behind it (dequeue, recovery — live p50 or
//	           sampled — and unit cost)
//	-shards S  with -stats: run the collapsed pc-range under the
//	           fault-tolerant shard coordinator (internal/dist) with S
//	           shards — retries, shard splitting, uncollapsed
//	           fallback — and print the recovery ledger and per-executor
//	           imbalance instead of per-thread chunk loads
//	-journal FILE
//	           with -shards: append-only checkpoint journal of completed
//	           pc-intervals (checksummed records + run fingerprint)
//	-resume    with -shards -journal: replay the journal, validate its
//	           fingerprint, and execute only the uncovered intervals
//	-deadline DUR
//	           wall-clock budget for the -stats run, wired as a
//	           context.WithTimeout into the parallel runtime (the same
//	           deadline path the collapsed daemon enforces per request);
//	           on expiry the team stops cooperatively at a chunk
//	           boundary and the typed faults.ErrCanceled class is reported
//	-trace-out FILE
//	           write the chunk timeline and compile spans as Chrome
//	           trace-event JSON (open in about:tracing or
//	           https://ui.perfetto.dev)
//	-serve ADDR
//	           start the live observability plane on ADDR (e.g. :9090 or
//	           127.0.0.1:0) for the duration of the run: GET /metrics
//	           (OpenMetrics), /snapshot (JSON rates), /trace (flight
//	           recorder), /debug/pprof. Forces telemetry on and enables
//	           the flight recorder
//	-hold DUR  with -serve, keep the plane up DUR after the run ends
//	           (negative: until interrupted), so the final counters can
//	           be scraped
//	-cpuprofile FILE / -memprofile FILE
//	           write pprof CPU/heap profiles of the run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/omp"
	"repro/internal/profiling"
	"repro/internal/roots"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// options bundles the command-line configuration of one run.
type options struct {
	scheme     string
	chunk      int
	vlength    int
	warp       int
	emitGo     bool
	report     bool
	check      int64
	stats      bool
	verify     bool
	sched      string
	statsN     int64
	threads    int
	shards     int
	journal    string
	resume     bool
	deadline   time.Duration
	traceOut   string
	serve      string
	hold       time.Duration
	cpuProfile string
	memProfile string
	args       []string

	// serveReady, when set (tests), receives the plane's bound address
	// once it is listening.
	serveReady func(net.Addr)
}

func main() {
	var o options
	flag.StringVar(&o.scheme, "scheme", "first-iteration", "code scheme: per-iteration|first-iteration|chunked|simd|warp")
	flag.IntVar(&o.chunk, "chunk", 64, "chunk size for -scheme chunked")
	flag.IntVar(&o.vlength, "vlength", 8, "vector length for -scheme simd")
	flag.IntVar(&o.warp, "warp", 32, "warp width for -scheme warp")
	flag.BoolVar(&o.emitGo, "go", false, "also emit a serial Go rendition")
	flag.BoolVar(&o.report, "report", false, "print ranking polynomial, count and root analysis")
	flag.Int64Var(&o.check, "check", 0, "self-check the bijection for this parameter value")
	flag.BoolVar(&o.stats, "stats", false, "run the collapsed nest and print telemetry (per-thread loads, recovery counters, imbalance)")
	flag.BoolVar(&o.verify, "verify", false, "re-rank every recovered tuple exactly during -check/-stats runs (escalates to binary search on mismatch)")
	flag.StringVar(&o.sched, "sched", "", "schedule for the -stats run, overriding the pragma clause: static|static,N|dynamic[,N]|guided[,N]|auto (auto lets the autotuner pick schedule, chunk and team size)")
	flag.Int64Var(&o.statsN, "n", 300, "parameter value for the -stats run")
	flag.IntVar(&o.threads, "threads", omp.DefaultThreads(), "team size for the -stats run")
	flag.IntVar(&o.shards, "shards", 0, "with -stats: run under the fault-tolerant shard coordinator with this many shards (0: plain team run)")
	flag.StringVar(&o.journal, "journal", "", "with -shards: append-only checkpoint journal for the run (enables -resume)")
	flag.BoolVar(&o.resume, "resume", false, "with -shards -journal: replay the journal and execute only uncovered pc-intervals")
	flag.DurationVar(&o.deadline, "deadline", 0, "wall-clock budget for the -stats run (0: none); expiry stops the team at a chunk boundary with ErrCanceled")
	flag.StringVar(&o.traceOut, "trace-out", "", "write Chrome trace-event JSON to this file")
	flag.StringVar(&o.serve, "serve", "", "serve the observability plane on this address (/metrics, /snapshot, /trace, /debug/pprof) during the run")
	flag.DurationVar(&o.hold, "hold", 0, "with -serve, keep the plane up this long after the run (negative: until interrupted)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	o.args = flag.Args()

	stop, perr := profiling.Start(o.cpuProfile, o.memProfile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "collapsetool:", perr)
		os.Exit(1)
	}
	err := run(o)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "collapsetool:", err)
		if pe := faults.AsPanic(err); pe != nil {
			// An internal invariant tripped; the captured stack is the
			// only clue worth filing, so print it after the message.
			fmt.Fprintf(os.Stderr, "%s", pe.Stack)
		}
		os.Exit(1)
	}
}

func run(o options) error {
	if o.resume && o.journal == "" {
		return fmt.Errorf("-resume needs -journal FILE (the checkpoint to replay)")
	}
	if (o.shards > 0 || o.journal != "" || o.resume) && !o.stats {
		return fmt.Errorf("-shards/-journal/-resume apply to the -stats run; add -stats")
	}
	var src []byte
	var err error
	name := "<stdin>"
	switch len(o.args) {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		name = o.args[0]
		src, err = os.ReadFile(name)
	default:
		return fmt.Errorf("at most one input file")
	}
	if err != nil {
		return err
	}

	prog, err := cparse.Parse(string(src))
	if err != nil {
		var se *cparse.SyntaxError
		if errors.As(err, &se) {
			// Point at the offending construct, compiler style.
			return fmt.Errorf("%s:%d:%d: %s", name, se.Line, se.Col, se.Msg)
		}
		return err
	}
	// The -stats run's schedule: -sched when given, else the pragma's.
	var sched omp.Schedule
	if o.stats {
		clause := prog.Schedule
		if o.sched != "" {
			clause = o.sched
		}
		if sched, err = omp.ParseSchedule(clause); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	var tel *telemetry.Registry
	if o.stats || o.traceOut != "" || o.serve != "" {
		tel = telemetry.New()
	}
	if o.serve != "" {
		// Server mode keeps the trace bounded: the flight recorder ring
		// retains the last 4096 spans, and the unbounded trace stays on
		// only when something downstream (-trace-out, -stats report)
		// consumes it.
		retain := o.traceOut != "" || o.stats
		tel.EnableFlight(4096, retain)
		plane := obs.NewPlane(tel)
		addr, err := plane.Serve(o.serve)
		if err != nil {
			return fmt.Errorf("-serve %s: %w", o.serve, err)
		}
		fmt.Fprintf(os.Stderr, "collapsetool: observability plane on http://%s (/metrics /snapshot /trace /debug/pprof)\n", addr)
		if o.serveReady != nil {
			o.serveReady(addr)
		}
		defer func() {
			if o.hold < 0 {
				fmt.Fprintln(os.Stderr, "collapsetool: run finished; holding plane open until interrupted")
				select {}
			}
			if o.hold > 0 {
				fmt.Fprintf(os.Stderr, "collapsetool: run finished; holding plane open %s\n", o.hold)
				time.Sleep(o.hold)
			}
			// Graceful drain: a scraper mid-/trace gets its full answer.
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			plane.Shutdown(shCtx)
		}()
	}
	// The -stats run demonstrates the collapse cache: the first Collapse
	// is a cold compile that populates it, a second structurally
	// identical request hits, and both timings plus the hit/miss counters
	// land in the telemetry report.
	var cache *core.CollapseCache
	var coldCompile, warmCompile time.Duration
	if o.stats {
		cache = core.NewCollapseCache(8)
	}
	uopts := unrank.Options{Telemetry: tel, Verify: o.verify}
	start := time.Now()
	res, err := core.CollapseCached(cache, prog.Nest, prog.CollapseCount, uopts)
	coldCompile = time.Since(start)
	if err == nil && cache != nil {
		start = time.Now()
		_, err = core.CollapseCached(cache, prog.Nest, prog.CollapseCount, uopts)
		warmCompile = time.Since(start)
	}
	if err != nil {
		if o.stats && faults.Collapsible(err) {
			// The technique is inapplicable to this nest; run it anyway
			// with plain outer-loop worksharing and report the downgrade.
			fmt.Fprintf(os.Stderr, "collapsetool: %s: collapse inapplicable: %v\n", name, err)
			fmt.Fprintf(os.Stderr, "collapsetool: downgrading to uncollapsed outer-loop worksharing\n")
			return runFallbackStats(prog, o, sched, tel)
		}
		return err
	}

	if o.report {
		fmt.Printf("parsed nest (collapse %d, schedule %q):\n%s\n",
			prog.CollapseCount, prog.Schedule, indent(prog.Nest.String(), "  "))
		fmt.Printf("ranking polynomial:\n  r(%s) = %s\n",
			strings.Join(prog.Nest.Indices(), ", "), res.Ranking())
		fmt.Printf("total iterations:\n  %s\n", res.Total())
		fmt.Printf("rebase: %s\n", rebaseLine(res))
		for k := 0; k < res.C-1; k++ {
			fmt.Printf("level %d (%s): %d symbolic root candidate(s); convenient root #%d:\n",
				k, prog.Nest.Loops[k].Index, len(res.Unranker.RootCandidates(k)), res.Unranker.RootIndex(k))
			fmt.Printf("  %s = floor(Re( %s ))%s\n",
				prog.Nest.Loops[k].Index, roots.String(res.Unranker.RootExpr(k)), codegen.PlusOffset(res.Unranker.Offset(k)))
		}
		fmt.Println()
	}

	var sch codegen.Scheme
	switch o.scheme {
	case "per-iteration":
		sch = codegen.PerIteration
	case "first-iteration":
		sch = codegen.FirstIteration
	case "chunked":
		sch = codegen.Chunked
	case "simd":
		sch = codegen.SIMD
	case "warp":
		sch = codegen.Warp
	default:
		return fmt.Errorf("unknown scheme %q", o.scheme)
	}
	opts := codegen.Options{
		Scheme:   sch,
		Schedule: prog.Schedule,
		Chunk:    o.chunk,
		VLength:  o.vlength,
		Warp:     o.warp,
		Body:     prog.Body,
	}
	out, err := codegen.EmitC(res, opts)
	if err != nil {
		return err
	}
	fmt.Print(out)

	if o.emitGo {
		goOpts := opts
		if sch != codegen.PerIteration && sch != codegen.FirstIteration {
			goOpts.Scheme = codegen.FirstIteration
		}
		goOpts.Body = "" // Go emission calls body(idx...)
		fn, err := codegen.EmitGo(res, goOpts)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(codegen.GoFile("collapsed", fn))
	}

	if o.check > 0 {
		if err := selfCheck(res, prog, o.check); err != nil {
			return err
		}
	}
	if o.stats {
		if o.shards > 0 {
			if err := runShardedStats(res, prog, o, tel); err != nil {
				return err
			}
		} else if err := runStats(res, prog, o, sched, tel); err != nil {
			return err
		}
		speedup := 0.0
		if warmCompile > 0 {
			speedup = float64(coldCompile) / float64(warmCompile)
		}
		fmt.Printf("\ncollapse cache: cold compile %s, warm hit %s (%.1fx); %s\n",
			coldCompile.Round(time.Microsecond), warmCompile.Round(time.Microsecond),
			speedup, cache.Stats())
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := tel.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in about:tracing or https://ui.perfetto.dev)\n", o.traceOut)
	}
	return nil
}

// selfCheck verifies the rank/unrank bijection by enumeration for the
// given parameter value and reports the recovery statistics of the run.
func selfCheck(res *core.Result, prog *cparse.Program, check int64) error {
	params := map[string]int64{}
	for _, p := range prog.Nest.Params {
		params[p] = check
	}
	b, err := res.Unranker.Bind(params)
	if err != nil {
		return err
	}
	idx := make([]int64, res.C)
	var pc int64
	okCount := int64(0)
	failed := false
	b.Instance().Enumerate(func(truth []int64) bool {
		pc++
		if err := b.Unrank(pc, idx); err != nil {
			fmt.Fprintf(os.Stderr, "check: Unrank(%d): %v\n", pc, err)
			failed = true
			return false
		}
		for q := range idx {
			if idx[q] != truth[q] {
				fmt.Fprintf(os.Stderr, "check: Unrank(%d) = %v, want %v\n", pc, idx, truth)
				failed = true
				return false
			}
		}
		okCount++
		return true
	})
	if failed {
		return fmt.Errorf("self-check failed")
	}
	fmt.Fprintf(os.Stderr, "self-check: %d/%d iterations recovered exactly (params=%d)\n",
		okCount, b.Total(), check)
	fmt.Fprintf(os.Stderr, "recovery stats: %s\n", b.Stats())
	return nil
}

// statsContext builds the -stats run context: background, or a
// context.WithTimeout when -deadline is set — the same deadline shape
// the collapsed daemon enforces per request.
func statsContext(deadline time.Duration) (context.Context, context.CancelFunc) {
	if deadline > 0 {
		return context.WithTimeout(context.Background(), deadline)
	}
	return context.Background(), func() {}
}

// classifyDeadline translates a run error into the typed taxonomy for
// the CLI: an ErrCanceled expiry is reported as such (the team stopped
// cooperatively at a chunk boundary), anything else passes through.
func classifyDeadline(err error, deadline time.Duration) error {
	if errors.Is(err, faults.ErrCanceled) {
		return fmt.Errorf("deadline %s expired: team stopped cooperatively at a chunk boundary (typed faults.ErrCanceled): %w",
			deadline, err)
	}
	return err
}

// runStats executes the collapsed nest with every parameter bound to
// -n and prints the telemetry: compile-phase spans, per-thread
// loads, recovery counters and the load-imbalance summary.
func runStats(res *core.Result, prog *cparse.Program, o options,
	sched omp.Schedule, tel *telemetry.Registry) error {
	params := map[string]int64{}
	for _, p := range prog.Nest.Params {
		params[p] = o.statsN
	}
	ctx, cancel := statsContext(o.deadline)
	defer cancel()
	if sched.Kind == omp.ScheduleAuto {
		return runTunedStats(ctx, res, params, o, tel)
	}
	cs, err := omp.CollapsedForChunkTelemetryCtx(ctx, res, params, o.threads, sched,
		tel, func(tid int, idx []int64) {})
	if err != nil {
		return classifyDeadline(err, o.deadline)
	}
	fmt.Printf("\n=== telemetry (params=%d, threads=%d, schedule %s, %d iterations) ===\n",
		o.statsN, o.threads, sched.Kind, cs.Total)
	fmt.Printf("\nload imbalance:\n%s", cs.ImbalanceReport())
	printRecovery(cs)
	fmt.Printf("\n%s", tel.Report())
	return nil
}

// printRecovery prints the team's recovery counters and how its chunk
// starts were positioned: recovered from the rank, or seeded by
// skipping forward from the worker's previous chunk.
func printRecovery(cs omp.CollapsedStats) {
	var chunks, seeded int64
	for _, t := range cs.PerThread {
		chunks += t.Chunks
		seeded += t.Seeded
	}
	fmt.Printf("\nrecovery stats (all threads): %s\n", cs.Stats)
	fmt.Printf("chunk starts: %d recovered, %d seeded\n", chunks-seeded, seeded)
}

// runTunedStats is the -sched auto form of runStats: the autotuner
// plans (schedule, chunk, workers) by simulation against the measured
// cost model, the run executes under the chosen triple, and the report
// leads with the decision, its predicted-vs-actual makespan and the
// calibration the plan in effect was derived from.
func runTunedStats(ctx context.Context, res *core.Result, params map[string]int64,
	o options, tel *telemetry.Registry) error {
	tuner := autotune.New(autotune.Options{Registry: tel, MaxWorkers: o.threads})
	run, err := tuner.CollapsedFor(ctx, res, params, func(tid int, idx []int64) {})
	if err != nil {
		return classifyDeadline(err, o.deadline)
	}
	d := run.Plan.Decision
	fmt.Printf("\n=== telemetry (params=%d, schedule auto -> %s, %d iterations) ===\n",
		o.statsN, d, run.Stats.Total)
	fmt.Printf("\nautotune decision: schedule %s, chunk %d, workers %d\n",
		d.Schedule.Kind, d.Schedule.Chunk, d.Workers)
	fmt.Printf("  predicted makespan %.3fms, actual %.3fms\n",
		d.PredictedSec*1e3, run.Actual.Seconds()*1e3)
	fmt.Printf("  plan cached: %v, replanned after run: %v\n", run.Cached, run.Replanned)
	recovery := "sampled"
	if run.Plan.Cal.RecoveryMeasured {
		recovery = "live p50"
	}
	fmt.Printf("  calibration: dequeue %.1fns, recovery %.1fns (%s), unit cost %.1fns\n",
		run.Plan.Cal.Dequeue*1e9, run.Plan.Cal.Recovery*1e9, recovery, run.Plan.UnitSec*1e9)
	fmt.Printf("\nload imbalance:\n%s", run.Stats.ImbalanceReport())
	printRecovery(run.Stats)
	fmt.Printf("\n%s", tel.Report())
	return nil
}

// runShardedStats is the -shards form of runStats: the collapsed
// pc-range runs under the internal/dist fault-tolerant coordinator —
// retry/split/fallback degradation, optional checkpoint journal and
// -resume — and the report is the recovery ledger plus the
// per-executor imbalance summary instead of per-thread chunk loads.
func runShardedStats(res *core.Result, prog *cparse.Program, o options,
	tel *telemetry.Registry) error {
	params := map[string]int64{}
	for _, p := range prog.Nest.Params {
		params[p] = o.statsN
	}
	ctx, cancel := statsContext(o.deadline)
	defer cancel()
	start := time.Now()
	rep, err := dist.Run(ctx, res, params, dist.Config{
		Workers:       o.threads,
		Shards:        o.shards,
		Journal:       o.journal,
		Resume:        o.resume,
		AllowFallback: true,
		Registry:      tel,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "collapsetool: "+format+"\n", args...)
		},
	}, func(worker int, pc int64, idx []int64) uint64 { return 1 })
	if err != nil {
		if o.journal != "" && errors.Is(err, faults.ErrCanceled) {
			fmt.Fprintf(os.Stderr,
				"collapsetool: run interrupted; progress is checkpointed — re-run with -resume -journal %s to finish the rest\n",
				o.journal)
		}
		return classifyDeadline(err, o.deadline)
	}
	elapsed := time.Since(start)
	fmt.Printf("\n=== sharded telemetry (params=%d, workers=%d, %d shards planned, %d iterations in %s) ===\n",
		o.statsN, o.threads, rep.PlannedShards, rep.Executed+rep.Resumed,
		elapsed.Round(time.Millisecond))
	if rep.Resumed > 0 {
		fmt.Printf("\nresume: %d iterations replayed from %s, %d executed this run\n",
			rep.Resumed, o.journal, rep.Executed)
	}
	if rep.FellBack {
		fmt.Printf("\nrecovery ladder exhausted: run degraded to uncollapsed worksharing\n")
	}
	fmt.Printf("\nrecovery ledger:\n")
	fmt.Printf("  completions        %d\n", rep.Completions)
	fmt.Printf("  journal duplicates %d\n", rep.Duplicates)
	fmt.Printf("  retries            %d\n", rep.Retries)
	fmt.Printf("  shard splits       %d\n", rep.Splits)
	imb := rep.Imbalance()
	fmt.Printf("\nper-executor imbalance (busy max/mean %.3f, cv %.3f):\n",
		imb.BusyImbalance, imb.BusyCV)
	for _, w := range rep.PerWorker {
		fmt.Printf("  worker %2d: %5d shards %10d iterations %12s busy\n",
			w.Worker, w.Shards, w.Iterations, w.Busy.Round(time.Microsecond))
	}
	fmt.Printf("\n%s", tel.Report())
	return nil
}

// runFallbackStats is the degraded form of runStats: the nest runs
// uncollapsed (outermost loop workshared) because collapsing was
// inapplicable, and the telemetry report records the downgrade.
func runFallbackStats(prog *cparse.Program, o options,
	sched omp.Schedule, tel *telemetry.Registry) error {
	params := map[string]int64{}
	for _, p := range prog.Nest.Params {
		params[p] = o.statsN
	}
	tel.Counter("omp.downgrades").Inc()
	var iters int64
	perThread := make([]int64, o.threads)
	ctx, cancel := statsContext(o.deadline)
	defer cancel()
	err := omp.UncollapsedFor(ctx, prog.Nest, params, o.threads, sched,
		func(tid int, idx []int64) { perThread[tid]++ })
	if err != nil {
		return classifyDeadline(err, o.deadline)
	}
	for _, c := range perThread {
		iters += c
	}
	tel.Counter("omp.iterations").Add(iters)
	fmt.Printf("\n=== telemetry (uncollapsed fallback, params=%d, threads=%d, schedule %s, %d iterations) ===\n",
		o.statsN, o.threads, sched.Kind, iters)
	fmt.Printf("\nper-thread iterations (outer-loop worksharing):\n")
	for t, c := range perThread {
		fmt.Printf("  thread %d: %d\n", t, c)
	}
	fmt.Printf("\n%s", tel.Report())
	return nil
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// rebaseLine lists, per collapsed level, the constant shift of the
// compiled canonical form (paper §IV.A: lower bounds rebased to 0),
// e.g. "i = i' + 517, j none".
func rebaseLine(res *core.Result) string {
	parts := make([]string, res.C)
	for k, l := range res.SubNest.Loops {
		parts[k] = l.Index + " none"
		if d := res.Unranker.Offset(k); d != 0 {
			parts[k] = l.Index + " = " + l.Index + "'" + codegen.PlusOffset(d)
		}
	}
	return strings.Join(parts, ", ")
}
