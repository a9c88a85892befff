package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// DistReport is the shard-scaling throughput and recovery overhead of
// the fault-tolerant coordinator (internal/dist) over the collapsed
// pc-range. Doc is its BENCH_PR8.json document, which `make gate-dist`
// diffs against the committed baseline.
type DistReport struct {
	// Nest is the driven workload (a triangular 2-nest, the paper's
	// canonical non-rectangular shape).
	Nest      string
	Scenarios []DistRow
}

// DistRow is one scenario of the study.
type DistRow struct {
	// Scenario names the configuration: "clean/w=K" rows sweep the
	// executor count (shard-scaling throughput), "journal" adds the
	// fsynced checkpoint journal, "chaos-kill" crashes every 5th shard
	// attempt, and "resume" replays a half-complete journal and executes
	// only the uncovered intervals.
	Scenario string
	Workers  int
	Shards   int
	Total    int64

	Seconds     float64
	MIterPerSec float64
	// OverheadPct is the slowdown versus the clean run at the same
	// worker count (journal fsyncs, crash recovery); 0 for the clean
	// rows themselves.
	OverheadPct float64

	// Recovery ledger of the run.
	LeaseExpiries int64
	Retries       int64
	Duplicates    int64
	// Resumed is the iteration count inherited from the journal instead
	// of re-executed ("resume" scenario).
	Resumed int64
}

// DistOptions configure the study.
type DistOptions struct {
	// Quick shrinks the problem for CI smoke runs.
	Quick bool
	// N is the triangle parameter (total ≈ N²/2 iterations); 0 selects
	// 3000 (400 with Quick).
	N int64
	// Workers is the executor-count ladder; empty selects 1,2,4,...,
	// doubling up to GOMAXPROCS.
	Workers []int
}

func (o *DistOptions) fill() {
	if o.N <= 0 {
		o.N = 3000
		if o.Quick {
			o.N = 400
		}
	}
	if len(o.Workers) == 0 {
		// Doubling ladder up to GOMAXPROCS, but never shorter than
		// 1,2,4: executors are goroutines, so oversubscription still
		// measures coordination overhead on small hosts.
		max := runtime.GOMAXPROCS(0)
		if max < 4 {
			max = 4
		}
		for w := 1; w < max; w *= 2 {
			o.Workers = append(o.Workers, w)
		}
		o.Workers = append(o.Workers, max)
	}
}

// distBody is the measured per-iteration work: cheap enough that the
// run cost is dominated by the engine (recovery, leasing, commits) —
// the overheads the study is after.
func distBody(worker int, pc int64, idx []int64) uint64 {
	return uint64(pc) ^ uint64(idx[0])*1099511628211
}

// Dist runs the shard-scaling and recovery study and returns the
// BENCH_PR8 document.
func Dist(opts DistOptions) (*DistReport, error) {
	opts.fill()
	tri, err := nest.New([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
	if err != nil {
		return nil, err
	}
	res, err := core.Collapse(tri, 2, unrank.Options{})
	if err != nil {
		return nil, err
	}
	params := map[string]int64{"N": opts.N}
	rep := &DistReport{
		Nest: strings.ReplaceAll(strings.TrimRight(tri.String(), "\n"), "\n", "; "),
	}

	maxW := opts.Workers[len(opts.Workers)-1]
	baseCfg := func(workers int) dist.Config {
		return dist.Config{Workers: workers, Shards: 8 * workers}
	}

	run := func(scenario string, cfg dist.Config, baseline float64) (*dist.Report, float64, error) {
		start := time.Now()
		r, err := dist.Run(context.Background(), res, params, cfg, distBody)
		sec := time.Since(start).Seconds()
		if err != nil {
			return nil, 0, fmt.Errorf("dist experiment %s: %w", scenario, err)
		}
		row := DistRow{
			Scenario: scenario, Workers: cfg.Workers, Shards: r.PlannedShards,
			Total: r.Total, Seconds: sec,
			MIterPerSec:   float64(r.Executed) / sec / 1e6,
			LeaseExpiries: r.LeaseExpiries, Retries: r.Retries,
			Duplicates: r.Duplicates, Resumed: r.Resumed,
		}
		if baseline > 0 {
			row.OverheadPct = (sec - baseline) / baseline * 100
		}
		rep.Scenarios = append(rep.Scenarios, row)
		return r, sec, nil
	}

	// Shard-scaling ladder: clean runs across the worker counts.
	var cleanMax float64
	for _, w := range opts.Workers {
		_, sec, err := run(fmt.Sprintf("clean/w=%d", w), baseCfg(w), 0)
		if err != nil {
			return nil, err
		}
		if w == maxW {
			cleanMax = sec
		}
	}

	dir, err := os.MkdirTemp("", "distbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Journal overhead: same run, every commit fsynced.
	jcfg := baseCfg(maxW)
	jcfg.Journal = filepath.Join(dir, "journal.ckpt")
	if _, _, err := run("journal", jcfg, cleanMax); err != nil {
		return nil, err
	}

	// Crash chaos: every 5th shard attempt panics mid-shard; the ladder
	// retries. Overhead = price of re-executing crashed attempts.
	var attempts atomic.Int64
	restore := faults.Activate(&faults.Plan{
		OnShard: func(worker int, lo, hi int64) error {
			if attempts.Add(1)%5 == 0 {
				panic("bench: injected executor crash")
			}
			return nil
		},
	})
	ccfg := baseCfg(maxW)
	ccfg.MaxRetries = 8
	ccfg.Backoff = 100 * time.Microsecond
	_, _, cerr := run("chaos-kill", ccfg, cleanMax)
	restore()
	if cerr != nil {
		return nil, cerr
	}

	// Resume: crash the coordinator at ~50% coverage, then resume from
	// the journal and execute only the uncovered intervals.
	b, err := res.Unranker.Bind(params)
	if err != nil {
		return nil, err
	}
	half := b.Total() / 2
	rcfg := baseCfg(maxW)
	rcfg.Journal = filepath.Join(dir, "resume.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	_, err = dist.Run(ctx, res, params, rcfg, func(worker int, pc int64, idx []int64) uint64 {
		if executed.Add(1) == half {
			cancel()
		}
		return distBody(worker, pc, idx)
	})
	cancel()
	if err == nil {
		return nil, fmt.Errorf("dist experiment resume: phase 1 finished despite mid-run cancel")
	} else if !errors.Is(err, faults.ErrCanceled) {
		return nil, fmt.Errorf("dist experiment resume phase 1: %w", err)
	}
	rcfg.Resume = true
	if _, _, err := run("resume", rcfg, 0); err != nil {
		return nil, err
	}
	return rep, nil
}

// RenderDist prints the study as an aligned table.
func RenderDist(rep *DistReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dist — sharded execution: scaling and recovery (%s)\n", rep.Nest)
	fmt.Fprintf(&b, "%-14s %7s %7s %10s %9s %11s %9s %7s %7s %8s %9s\n",
		"scenario", "workers", "shards", "total", "sec", "Miter/s", "over%", "retry", "lease", "dup", "resumed")
	for _, r := range rep.Scenarios {
		fmt.Fprintf(&b, "%-14s %7d %7d %10d %9.3f %11.2f %8.1f%% %7d %7d %8d %9d\n",
			r.Scenario, r.Workers, r.Shards, r.Total, r.Seconds, r.MIterPerSec,
			r.OverheadPct, r.Retries, r.LeaseExpiries, r.Duplicates, r.Resumed)
	}
	return b.String()
}

// Rows flattens the study. Worker count and problem size are the
// comparability key.
func (r *DistReport) Rows() []BenchRow {
	var rows []BenchRow
	for _, sc := range r.Scenarios {
		add := caseRows(&rows, "dist:"+sc.Scenario, map[string]int64{"workers": int64(sc.Workers), "total": sc.Total})
		add("miter_per_sec", Higher, sc.MIterPerSec)
		// Zero on the clean rows themselves; a non-positive baseline
		// value is not compared.
		add("overhead_pct", Lower, sc.OverheadPct)
	}
	return rows
}

// Doc is the report as a BENCH_PR8.json document.
func (r *DistReport) Doc() BenchDoc {
	return BenchDoc{Suite: "dist", Rows: r.Rows(), Config: config("nest", r.Nest)}
}
