// Command benchfig regenerates the figures of the paper's evaluation
// (§VII). Each figure prints as an aligned text table; see EXPERIMENTS.md
// for the recorded paper-vs-measured comparison.
//
//	benchfig -fig 2          Fig. 2  load imbalance of schedule(static)
//	benchfig -fig 8          Fig. 8  root curves r(i,0,0) - pc
//	benchfig -fig 9          Fig. 9  gains of collapsing (simulated 12-thread makespans)
//	benchfig -fig 10         Fig. 10 control overhead of 12 recoveries (measured)
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
// (Fig. 2 geometry), -kernel (kernel for -fig imbalance), -src / -srcn
// (run -fig imbalance on the nest of an annotated C file instead of a
// named kernel; parse errors are reported file:line:col), -trace-out
// (write the imbalance runs' chunk timeline as Chrome trace-event
// JSON), -v (calibration details), -cpuprofile / -memprofile (write
// pprof profiles of the run), -serve (start the live observability
// plane — /metrics, /snapshot, /trace, /debug/pprof — on an address
// for the duration of the run; -hold keeps it up after the run ends,
// negative until interrupted).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cparse"
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
	src        string
	srcN       int64
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
var knownFigs = []string{"2", "8", "9", "10", "imbalance", "ablation", "scaling", "overhead", "compile", "invert", "autotune", "dist", "all"}

func main() {
	var o options
	flag.StringVar(&o.fig, "fig", "all", "figure to regenerate: 2|8|9|10|imbalance|all")
	flag.IntVar(&o.threads, "threads", 12, "simulated thread count (paper: 12)")
	flag.BoolVar(&o.quick, "quick", false, "use small problem sizes")
	flag.BoolVar(&o.real, "real", false, "also run the goroutine runtime for Fig. 9")
	flag.IntVar(&o.chunks, "chunks", 12, "recovery count for Fig. 10 (paper: 12)")
	flag.Int64Var(&o.fig2N, "n", 1000, "Fig. 2 problem size N")
	flag.IntVar(&o.fig2T, "fig2threads", 5, "Fig. 2 thread count (paper: 5)")
	flag.StringVar(&o.kernel, "kernel", "correlation", "kernel for -fig imbalance")
	flag.StringVar(&o.src, "src", "", "annotated C file: run -fig imbalance on its nest instead of a named kernel")
	flag.Int64Var(&o.srcN, "srcn", 200, "parameter value for every parameter of the -src nest")
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
	do := func(f string) bool { return o.fig == "all" || o.fig == f }
	if do("2") {
		fmt.Print(experiments.Fig2(o.fig2N, o.fig2T).Render())
		fmt.Println()
	}
	if do("8") {
		fmt.Print(experiments.RenderFig8(experiments.Fig8()))
		fmt.Println()
	}
	if do("9") {
		opts := experiments.Fig9Options{Threads: o.threads, Quick: o.quick, Real: o.real}
		if o.verbose {
			opts.Verbose = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
			}
		}
		rows, err := experiments.Fig9(opts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig9(rows, o.threads, o.real))
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
		label := o.kernel
		if o.src != "" {
			prog, err := parseSrc(o.src)
			if err != nil {
				return err
			}
			opts.Nest = prog.Nest
			opts.Collapse = prog.CollapseCount
			opts.Params = map[string]int64{}
			for _, p := range prog.Nest.Params {
				opts.Params[p] = o.srcN
			}
			label = fmt.Sprintf("%s (collapse %d, params=%d)",
				filepath.Base(o.src), prog.CollapseCount, o.srcN)
		}
		rows, err := experiments.Imbalance(opts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderImbalance(rows, label, o.threads))
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
	if o.fig == "ablation" {
		rows, err := experiments.Ablation(experiments.AblationOptions{Quick: o.quick})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblation(rows))
		fmt.Println()
	}
	if o.fig == "scaling" {
		rows, err := experiments.Scaling(experiments.ScalingOptions{Quick: o.quick})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderScaling(rows))
		fmt.Println()
	}
	if o.fig == "compile" {
		opts := experiments.CompileOptions{Quick: o.quick, Reps: o.reps}
		if o.verbose {
			opts.Verbose = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
			}
		}
		rep, err := experiments.Compile(opts)
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
		opts := experiments.OverheadOptions{Quick: o.quick, Reps: o.reps}
		if o.verbose {
			opts.Verbose = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
			}
		}
		rep, err := experiments.Overhead(opts)
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
		opts := experiments.InvertOptions{Quick: o.quick, Reps: o.reps}
		if o.verbose {
			opts.Verbose = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
			}
		}
		rep, err := experiments.Invert(opts)
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
		opts := experiments.AutotuneOptions{Quick: o.quick, Reps: o.reps, Threads: o.threads}
		if o.verbose {
			opts.Verbose = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
			}
		}
		rep, err := experiments.Autotune(opts)
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

// parseSrc reads and parses an annotated C file, reporting parse
// failures compiler style (file:line:col).
func parseSrc(path string) (*cparse.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := cparse.Parse(string(data))
	if err != nil {
		var se *cparse.SyntaxError
		if errors.As(err, &se) {
			return nil, fmt.Errorf("%s:%d:%d: %s", path, se.Line, se.Col, se.Msg)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return prog, nil
}
