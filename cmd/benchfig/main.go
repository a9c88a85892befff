// Command benchfig regenerates the figures of the paper's evaluation
// (§VII). Each figure prints as an aligned text table; see EXPERIMENTS.md
// for the recorded paper-vs-measured comparison.
//
//	benchfig -fig 2          Fig. 2  load imbalance of schedule(static)
//	benchfig -fig 8          Fig. 8  root curves r(i,0,0) - pc
//	benchfig -fig 9          Fig. 9  gains of collapsing (simulated 12-thread makespans)
//	benchfig -fig 10         Fig. 10 control overhead of 12 recoveries (measured)
//	benchfig -fig scaling    Fig. 9 over 2, 4, 8, 12, 24 and 48 threads (one
//	                         measurement per kernel, simulated at each)
//	benchfig -fig imbalance  measured per-thread load distribution of the
//	                         collapsed kernel under every schedule kind
//	benchfig -fig overhead   per-kernel × schedule engine comparison
//	                         (original vs per-iteration vs range-batched
//	                         vs recover-every); -json writes BENCH_PR4.json
//	benchfig -fig compile    compile-path throughput: cold (one serial
//	                         pass) vs cached Collapse per kernel;
//	                         -json writes BENCH_PR5.json
//	benchfig -fig invert     recovery throughput at chunk starts: per-pc
//	                         binary search vs breakpoint-table lookup vs
//	                         the closed form; -json writes BENCH_PR9.json
//	benchfig -fig autotune   schedule autotuning: the measured-cost
//	                         planner's pick vs a hand-picked
//	                         (schedule, chunk) panel per kernel;
//	                         -json writes BENCH_PR10.json
//	benchfig -fig dist       sharded execution on the fault-tolerant
//	                         coordinator: shard-scaling throughput plus
//	                         journal, crash-chaos and resume overheads;
//	                         -json writes BENCH_PR8.json
//	benchfig -fig all        everything
//
// Flags: -threads (virtual thread count, default 12), -quick (small
// problem sizes), -real (also run the goroutine runtime for Fig. 9),
// -chunks (recovery count for Fig. 10, default 12), -n / -fig2threads
// (Fig. 2 geometry), -kernel (kernel for -fig imbalance; the chunk
// distribution of an annotated C file is collapsetool -stats'), -trace-out
// (write the imbalance runs' chunk timeline as Chrome trace-event
// JSON), -v (calibration details), -cpuprofile / -memprofile (write
// pprof profiles of the run), -serve (start the live observability
// plane — /metrics, /snapshot, /trace, /debug/pprof — on an address
// for the duration of the run; -hold keeps it up after the run ends,
// negative until interrupted).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/telemetry"
)

// options bundles the command-line configuration of one run.
type options struct {
	fig        string
	threads    int
	quick      bool
	real       bool
	chunks     int
	fig2N      int64
	fig2T      int
	kernel     string
	traceOut   string
	jsonOut    string
	reps       int
	verbose    bool
	serve      string
	hold       time.Duration
	cpuProfile string
	memProfile string

	// serveReady, when set (tests), receives the plane's bound address
	// once it is listening.
	serveReady func(net.Addr)
}

// knownFigs are the accepted -fig values; anything else is rejected up
// front instead of silently printing nothing.
var knownFigs = []string{"2", "8", "9", "10", "imbalance", "scaling", "overhead", "compile", "invert", "autotune", "dist", "all"}

// scalingThreads are the thread counts of -fig scaling.
var scalingThreads = []int{2, 4, 8, 12, 24, 48}

func main() {
	var o options
	flag.StringVar(&o.fig, "fig", "all", "figure to regenerate: "+strings.Join(knownFigs, "|"))
	flag.IntVar(&o.threads, "threads", 12, "simulated thread count (paper: 12)")
	flag.BoolVar(&o.quick, "quick", false, "use small problem sizes")
	flag.BoolVar(&o.real, "real", false, "also run the goroutine runtime for Fig. 9")
	flag.IntVar(&o.chunks, "chunks", 12, "recovery count for Fig. 10 (paper: 12)")
	flag.Int64Var(&o.fig2N, "n", 1000, "Fig. 2 problem size N")
	flag.IntVar(&o.fig2T, "fig2threads", 5, "Fig. 2 thread count (paper: 5)")
	flag.StringVar(&o.kernel, "kernel", "correlation", "kernel for -fig imbalance")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the imbalance chunk timeline as Chrome trace-event JSON")
	flag.StringVar(&o.jsonOut, "json", "", "write the suite report (-fig overhead|compile|invert|autotune|dist) as JSON to this file")
	flag.IntVar(&o.reps, "reps", 0, "alternated timing rounds for the measured suites (default 3, quick: 1)")
	flag.BoolVar(&o.verbose, "v", false, "print calibration details")
	flag.StringVar(&o.serve, "serve", "", "serve the observability plane on this address (/metrics, /snapshot, /trace, /debug/pprof) during the run")
	flag.DurationVar(&o.hold, "hold", 0, "with -serve, keep the plane up this long after the run (negative: until interrupted)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	stop, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
	err = run(o)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	known := false
	for _, f := range knownFigs {
		if o.fig == f {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown figure %q (valid: %v)", o.fig, knownFigs)
	}
	// The plane's registry; figures that accept telemetry (imbalance)
	// feed it, and process gauges/pprof are live either way.
	var servTel *telemetry.Registry
	if o.serve != "" {
		servTel = telemetry.New()
		servTel.EnableFlight(4096, o.traceOut != "")
		plane := obs.NewPlane(servTel)
		addr, err := plane.Serve(o.serve)
		if err != nil {
			return fmt.Errorf("-serve %s: %w", o.serve, err)
		}
		fmt.Fprintf(os.Stderr, "benchfig: observability plane on http://%s (/metrics /snapshot /trace /debug/pprof)\n", addr)
		if o.serveReady != nil {
			o.serveReady(addr)
		}
		defer func() {
			if o.hold < 0 {
				fmt.Fprintln(os.Stderr, "benchfig: run finished; holding plane open until interrupted")
				select {}
			}
			if o.hold > 0 {
				fmt.Fprintf(os.Stderr, "benchfig: run finished; holding plane open %s\n", o.hold)
				time.Sleep(o.hold)
			}
			// Graceful drain: a scraper mid-/trace gets its full answer.
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			plane.Shutdown(shCtx)
		}()
	}
	var verbose func(format string, args ...interface{})
	if o.verbose {
		verbose = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}
	do := func(f string) bool { return o.fig == "all" || o.fig == f }
	if do("2") {
		fmt.Print(experiments.Fig2(o.fig2N, o.fig2T).Render())
		fmt.Println()
	}
	if do("8") {
		fmt.Print(experiments.RenderFig8(experiments.Fig8()))
		fmt.Println()
	}
	if do("9") || o.fig == "scaling" {
		threads := []int{o.threads}
		if o.fig == "scaling" {
			threads = scalingThreads
		}
		rows, err := experiments.Fig9(experiments.Fig9Options{Threads: threads, Quick: o.quick, Real: o.real, Verbose: verbose})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig9(rows, o.real))
		fmt.Println()
	}
	if do("10") {
		rows, err := experiments.Fig10(experiments.Fig10Options{Chunks: o.chunks, Quick: o.quick})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig10(rows, o.chunks))
		fmt.Println()
	}
	if do("imbalance") {
		tel := servTel
		if tel == nil && o.traceOut != "" {
			tel = telemetry.New()
		}
		opts := experiments.ImbalanceOptions{
			Kernel:    o.kernel,
			Threads:   o.threads,
			Quick:     o.quick,
			Telemetry: tel,
		}
		rows, err := experiments.Imbalance(opts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderImbalance(rows, o.kernel, o.threads))
		fmt.Println()
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
	}
	if o.fig == "compile" {
		rep, err := experiments.Compile(experiments.CompileOptions{Quick: o.quick, Reps: o.reps, Verbose: verbose})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderCompile(rep))
		fmt.Println()
		if err := writeDoc(o.jsonOut, rep.Doc()); err != nil {
			return err
		}
	}
	if o.fig == "overhead" {
		rep, err := experiments.Overhead(experiments.OverheadOptions{Quick: o.quick, Reps: o.reps, Verbose: verbose})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderOverhead(rep))
		fmt.Println()
		if err := writeDoc(o.jsonOut, rep.Doc()); err != nil {
			return err
		}
	}
	if o.fig == "invert" {
		rep, err := experiments.Invert(experiments.InvertOptions{Quick: o.quick, Reps: o.reps, Verbose: verbose})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderInvert(rep))
		fmt.Println()
		if err := writeDoc(o.jsonOut, rep.Doc()); err != nil {
			return err
		}
	}
	if o.fig == "autotune" {
		rep, err := experiments.Autotune(experiments.AutotuneOptions{Quick: o.quick, Reps: o.reps, Threads: o.threads, Verbose: verbose})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAutotune(rep))
		fmt.Println()
		if err := writeDoc(o.jsonOut, rep.Doc()); err != nil {
			return err
		}
	}
	if o.fig == "dist" {
		rep, err := experiments.Dist(experiments.DistOptions{Quick: o.quick})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderDist(rep))
		fmt.Println()
		if err := writeDoc(o.jsonOut, rep.Doc()); err != nil {
			return err
		}
	}
	return nil
}

// writeDoc writes a suite's BenchDoc to path, when one was asked for.
func writeDoc(path string, d experiments.BenchDoc) error {
	if path == "" {
		return nil
	}
	if err := experiments.WriteDoc(path, d); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s report written to %s\n", d.Suite, path)
	return nil
}
