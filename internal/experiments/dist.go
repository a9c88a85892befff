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

	"repro/internal/autotune"
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

	// Seconds is the fastest of distReps independent attempts; the
	// recovery ledger below is that attempt's.
	Seconds     float64
	MIterPerSec float64
	// OverheadPct is the slowdown versus the clean run at the same
	// worker count (journal fsyncs, crash recovery), from their median
	// within-round ratio; 0 for the clean rows themselves.
	OverheadPct float64

	// Recovery ledger of the run.
	Retries    int64
	Duplicates int64
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

// distReps is the number of independent attempts per scenario; a row
// reports the fastest.
const distReps = 3

// distBody is the measured per-iteration work: cheap enough that the
// run cost is dominated by the engine (recovery, dispatch, commits) —
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
	dir, err := os.MkdirTemp("", "distbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// journal returns a checkpoint path in a fresh directory, so no
	// attempt replays or appends to another attempt's journal.
	journal := func() (string, error) {
		d, err := os.MkdirTemp(dir, "rep")
		return filepath.Join(d, "journal.ckpt"), err
	}
	nothing := func() {}

	// A scenario's prepare readies one attempt from scratch and returns
	// its config plus a cleanup to run after it.
	type scenario struct {
		name     string
		overhead bool // report the slowdown versus the clean max-worker row
		prepare  func() (dist.Config, func(), error)
	}
	var scenarios []scenario
	// Shard-scaling ladder: clean runs across the worker counts.
	for _, w := range opts.Workers {
		scenarios = append(scenarios, scenario{fmt.Sprintf("clean/w=%d", w), false,
			func() (dist.Config, func(), error) { return baseCfg(w), nothing, nil }})
	}
	b, err := res.Unranker.Bind(params)
	if err != nil {
		return nil, err
	}
	half := b.Total() / 2
	scenarios = append(scenarios,
		// Journal overhead: same run, every commit fsynced.
		scenario{"journal", true, func() (dist.Config, func(), error) {
			cfg := baseCfg(maxW)
			path, err := journal()
			cfg.Journal = path
			return cfg, nothing, err
		}},
		// Crash chaos: every 5th shard attempt panics mid-shard; the
		// ladder retries. Overhead = price of re-executing crashed
		// attempts.
		scenario{"chaos-kill", true, func() (dist.Config, func(), error) {
			var attempts atomic.Int64
			restore := faults.Activate(&faults.Plan{
				OnShard: func(worker int, lo, hi int64) error {
					if attempts.Add(1)%5 == 0 {
						panic("bench: injected executor crash")
					}
					return nil
				},
			})
			cfg := baseCfg(maxW)
			cfg.MaxRetries = 8
			return cfg, restore, nil
		}},
		// Resume: crash the coordinator at ~50% coverage, then resume
		// from the journal and execute only the uncovered intervals.
		scenario{"resume", false, func() (dist.Config, func(), error) {
			cfg := baseCfg(maxW)
			path, err := journal()
			if err != nil {
				return cfg, nothing, err
			}
			cfg.Journal = path
			ctx, cancel := context.WithCancel(context.Background())
			var executed atomic.Int64
			_, err = dist.Run(ctx, res, params, cfg, func(worker int, pc int64, idx []int64) uint64 {
				if executed.Add(1) == half {
					cancel()
				}
				return distBody(worker, pc, idx)
			})
			cancel()
			if err == nil {
				return cfg, nothing, errors.New("phase 1 finished despite mid-run cancel")
			} else if !errors.Is(err, faults.ErrCanceled) {
				return cfg, nothing, fmt.Errorf("phase 1: %w", err)
			}
			cfg.Resume = true
			return cfg, nothing, nil
		}},
	)

	// Each row is the fastest of distReps attempts: the scenarios are
	// single runs of a few milliseconds, so one preemption or one slow
	// fsync would otherwise decide a row. The attempts alternate over
	// every scenario, so a slow spell of the host is spread over the
	// rows, and a scenario's overhead is judged against the clean
	// max-worker run of the same round. A scenario's prepare runs
	// untimed before each attempt, after the previous attempt's cleanup.
	cfgs := make([]dist.Config, len(scenarios))
	reports := make([][]*dist.Report, len(scenarios))
	errs := make([]error, len(scenarios))
	cleanup := nothing
	prepare := func(i int) {
		cleanup()
		var err error
		if cfgs[i], cleanup, err = scenarios[i].prepare(); err != nil && errs[i] == nil {
			errs[i] = err
		}
	}
	alts := make([]func(), len(scenarios))
	for i := range scenarios {
		alts[i] = func() {
			r, err := dist.Run(context.Background(), res, params, cfgs[i], distBody)
			if err != nil && errs[i] == nil {
				errs[i] = err
			}
			reports[i] = append(reports[i], r)
		}
	}
	secs := autotune.Alternate(distReps, 0, prepare, alts...)
	cleanup()
	cleanMax := len(opts.Workers) - 1
	rep.Scenarios = make([]DistRow, len(scenarios))
	for i, sc := range scenarios {
		if errs[i] != nil {
			return nil, fmt.Errorf("dist experiment %s: %w", sc.name, errs[i])
		}
		// The recovery ledger is the fastest attempt's.
		fastest := 0
		for round := range secs {
			if secs[round][i] < secs[fastest][i] {
				fastest = round
			}
		}
		r, sec := reports[i][fastest], secs[fastest][i]
		rep.Scenarios[i] = DistRow{
			Scenario: sc.name, Workers: cfgs[i].Workers, Shards: r.PlannedShards,
			Total: r.Total, Seconds: sec,
			MIterPerSec: float64(r.Executed) / sec / 1e6,
			Retries:     r.Retries, Duplicates: r.Duplicates, Resumed: r.Resumed,
		}
		if sc.overhead {
			rep.Scenarios[i].OverheadPct = (autotune.MedianRatio(secs, i, cleanMax) - 1) * 100
		}
	}
	return rep, nil
}

// RenderDist prints the study as an aligned table.
func RenderDist(rep *DistReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dist — sharded execution: scaling and recovery (%s)\n", rep.Nest)
	fmt.Fprintf(&b, "%-14s %7s %7s %10s %9s %11s %9s %7s %8s %9s\n",
		"scenario", "workers", "shards", "total", "sec", "Miter/s", "over%", "retry", "dup", "resumed")
	for _, r := range rep.Scenarios {
		fmt.Fprintf(&b, "%-14s %7d %7d %10d %9.3f %11.2f %8.1f%% %7d %8d %9d\n",
			r.Scenario, r.Workers, r.Shards, r.Total, r.Seconds, r.MIterPerSec,
			r.OverheadPct, r.Retries, r.Duplicates, r.Resumed)
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
