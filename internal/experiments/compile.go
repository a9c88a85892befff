package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/unrank"
)

// ---------------------------------------------------------------------
// Compile suite — the PR-5 compile-path throughput record: for every
// Fig. 5 kernel nest, the cost of building the collapsed form
//
//   - cold and serial (CompileWorkers=1: the per-level pipeline with no
//     fan-out — the pre-parallelization shape of the compile path);
//   - cold with the per-level fan-out (CompileWorkers=0, i.e.
//     GOMAXPROCS workers over level restriction/solving/selection);
//   - warm through the structural CollapseCache (signature lookup plus
//     the shallow rename of the cached artifact).
//
// It is the source of BENCH_PR5.json (`make bench-json`), whose
// acceptance bar is cached-vs-cold >= 2x on repeated collapses.
// ---------------------------------------------------------------------

// CompileRow is one kernel's compile-path measurement.
type CompileRow struct {
	Kernel string
	Depth  int
	C      int
	// Microseconds per Collapse under each regime.
	ColdSerialUs   float64
	ColdParallelUs float64
	CachedUs       float64
	// SpeedupParallel is serial over parallel cold compile (the fan-out's
	// contribution); SpeedupCached is parallel cold over warm cached (the
	// cache's contribution on repeated collapses).
	SpeedupParallel float64
	SpeedupCached   float64
}

// CompileReport is the suite's result; Doc is its BENCH_PR5.json
// document.
type CompileReport struct {
	Quick   bool
	Reps    int
	Kernels []CompileRow
	// Cache counters accumulated across the whole suite (every kernel's
	// warm phase runs against one shared cache).
	Cache core.CacheStats
}

// CompileOptions configure the suite.
type CompileOptions struct {
	Quick bool // fewer timing repetitions (CI smoke)
	// Reps is the best-of repetition count per timing (default 3; 1 in
	// Quick mode).
	Reps int
	// MinTime is the minimum accumulated duration per timing sample
	// (default 25ms; 2ms in Quick mode).
	MinTime time.Duration
	Verbose func(format string, args ...interface{})
}

func (o *CompileOptions) fill() {
	if o.Reps <= 0 {
		o.Reps = 3
		if o.Quick {
			o.Reps = 1
		}
	}
	if o.MinTime <= 0 {
		o.MinTime = 25 * time.Millisecond
		if o.Quick {
			o.MinTime = 2 * time.Millisecond
		}
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...interface{}) {}
	}
}

// Compile runs the suite over every kernel.
func Compile(opts CompileOptions) (*CompileReport, error) {
	opts.fill()
	rep := &CompileReport{Quick: opts.Quick, Reps: opts.Reps}
	cache := core.NewCollapseCache(64)
	best := func(f func()) float64 {
		b := -1.0
		for r := 0; r < opts.Reps; r++ {
			if s := secPerCallOver(opts.MinTime, f); b < 0 || s < b {
				b = s
			}
		}
		return b * 1e6 // microseconds
	}
	for _, k := range kernels.All() {
		row := CompileRow{Kernel: k.Name, Depth: k.Nest.Depth(), C: k.Collapse}
		var err error
		collapse := func(workers int) func() {
			return func() {
				if _, cerr := core.Collapse(k.Nest, k.Collapse,
					unrank.Options{CompileWorkers: workers}); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
		row.ColdSerialUs = best(collapse(1))
		row.ColdParallelUs = best(collapse(0))
		// Warm phase: first call populates the shared cache, the timed
		// calls hit it.
		if _, cerr := core.CollapseCached(cache, k.Nest, k.Collapse, unrank.Options{}); cerr != nil && err == nil {
			err = cerr
		}
		row.CachedUs = best(func() {
			if _, cerr := core.CollapseCached(cache, k.Nest, k.Collapse, unrank.Options{}); cerr != nil && err == nil {
				err = cerr
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		if row.ColdParallelUs > 0 {
			row.SpeedupParallel = row.ColdSerialUs / row.ColdParallelUs
		}
		if row.CachedUs > 0 {
			row.SpeedupCached = row.ColdParallelUs / row.CachedUs
		}
		opts.Verbose("%s: serial %.0fus, parallel %.0fus (x%.2f), cached %.1fus (x%.1f)",
			k.Name, row.ColdSerialUs, row.ColdParallelUs, row.SpeedupParallel,
			row.CachedUs, row.SpeedupCached)
		rep.Kernels = append(rep.Kernels, row)
	}
	rep.Cache = cache.Stats()
	return rep, nil
}

// Rows flattens the report. Compile rows have no problem size; depth
// and collapse count stand in as the comparability key.
func (r *CompileReport) Rows() []BenchRow {
	var rows []BenchRow
	for _, k := range r.Kernels {
		add := caseRows(&rows, k.Kernel, map[string]int64{"depth": int64(k.Depth), "collapse": int64(k.C)})
		add("cold_serial_us", Lower, k.ColdSerialUs)
		add("cold_parallel_us", Lower, k.ColdParallelUs)
		add("cached_us", Lower, k.CachedUs)
		add("speedup_parallel_vs_serial", Higher, k.SpeedupParallel)
		add("speedup_cached_vs_cold", Higher, k.SpeedupCached)
	}
	return rows
}

// Doc is the report as a BENCH_PR5.json document.
func (r *CompileReport) Doc() BenchDoc {
	return BenchDoc{Suite: "compile", Rows: r.Rows(), Config: config("quick", r.Quick, "reps", r.Reps)}
}

// RenderCompile prints the report as an aligned table.
func RenderCompile(r *CompileReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Compile suite — µs per Collapse (GOMAXPROCS=%d, best of %d)\n",
		runtime.GOMAXPROCS(0), r.Reps)
	fmt.Fprintf(&b, "%-18s %5s %12s %12s %10s %9s %9s\n",
		"kernel", "d/c", "cold-serial", "cold-par", "cached", "par-gain", "cache-x")
	for _, row := range r.Kernels {
		fmt.Fprintf(&b, "%-18s %2d/%-2d %12.1f %12.1f %10.2f %8.2fx %8.1fx\n",
			row.Kernel, row.Depth, row.C, row.ColdSerialUs, row.ColdParallelUs,
			row.CachedUs, row.SpeedupParallel, row.SpeedupCached)
	}
	fmt.Fprintf(&b, "cache: %s\n", r.Cache)
	return b.String()
}
