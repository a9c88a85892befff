package experiments

import (
	"encoding/json"
	"fmt"
	"io"
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
	Kernel string `json:"kernel"`
	Depth  int    `json:"depth"`
	C      int    `json:"collapse"`
	// Microseconds per Collapse under each regime.
	ColdSerialUs   float64 `json:"cold_serial_us"`
	ColdParallelUs float64 `json:"cold_parallel_us"`
	CachedUs       float64 `json:"cached_us"`
	// SpeedupParallel is serial over parallel cold compile (the fan-out's
	// contribution); SpeedupCached is parallel cold over warm cached (the
	// cache's contribution on repeated collapses).
	SpeedupParallel float64 `json:"speedup_parallel_vs_serial"`
	SpeedupCached   float64 `json:"speedup_cached_vs_cold"`
}

// CompileReport is the machine-readable document written to
// BENCH_PR5.json. GoVersion/GOMAXPROCS predate the Meta block and stay
// for schema-v1 readers; Meta is authoritative from schema v2 on.
type CompileReport struct {
	Suite      string       `json:"suite"` // "compile"
	Meta       BenchMeta    `json:"meta"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Quick      bool         `json:"quick"`
	Reps       int          `json:"reps"`
	Rows       []CompileRow `json:"kernels"`
	// Cache counters accumulated across the whole suite (every kernel's
	// warm phase runs against one shared cache).
	Cache core.CacheStats `json:"cache"`
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
	rep := &CompileReport{
		Suite:      "compile",
		Meta:       NewBenchMeta(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      opts.Quick,
		Reps:       opts.Reps,
	}
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
		rep.Rows = append(rep.Rows, row)
	}
	rep.Cache = cache.Stats()
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r *CompileReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderCompile prints the report as an aligned table.
func RenderCompile(r *CompileReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Compile suite — µs per Collapse (GOMAXPROCS=%d, best of %d)\n",
		r.GOMAXPROCS, r.Reps)
	fmt.Fprintf(&b, "%-18s %5s %12s %12s %10s %9s %9s\n",
		"kernel", "d/c", "cold-serial", "cold-par", "cached", "par-gain", "cache-x")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %2d/%-2d %12.1f %12.1f %10.2f %8.2fx %8.1fx\n",
			row.Kernel, row.Depth, row.C, row.ColdSerialUs, row.ColdParallelUs,
			row.CachedUs, row.SpeedupParallel, row.SpeedupCached)
	}
	fmt.Fprintf(&b, "cache: %s\n", r.Cache)
	return b.String()
}
