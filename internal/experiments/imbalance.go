package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/omp"
	"repro/internal/telemetry"
)

// ImbalanceOptions configure the per-schedule load-balance experiment.
type ImbalanceOptions struct {
	// Kernel names the benchmark to run (default "correlation", the
	// paper's motivating triangular nest).
	Kernel string
	// Threads is the team size (default 8).
	Threads int
	// Quick selects the small test problem sizes.
	Quick bool
	// Telemetry, when non-nil, receives the chunk timelines of every
	// schedule run on one shared timebase (for Chrome trace export).
	Telemetry *telemetry.Registry
}

// ImbalanceRow is one schedule's measured load distribution.
type ImbalanceRow struct {
	Label  string
	Sched  omp.Schedule
	Wall   time.Duration
	Stats  omp.CollapsedStats
	Report telemetry.ImbalanceReport
}

// imbalanceSchedules are the schedule clauses compared by the
// experiment, mirroring the paper's static-vs-dynamic discussion
// (Figs. 10–13): collapsed static is expected to be near-perfectly
// balanced, dynamic trades balance for dequeue overhead.
func imbalanceSchedules() []omp.Schedule {
	return []omp.Schedule{
		{Kind: omp.Static},
		{Kind: omp.StaticChunk, Chunk: 64},
		{Kind: omp.Dynamic, Chunk: 1},
		{Kind: omp.Dynamic, Chunk: 64},
		{Kind: omp.Guided},
	}
}

func scheduleLabel(s omp.Schedule) string {
	if s.Chunk > 0 {
		return fmt.Sprintf("%s(%d)", s.Kind, s.Chunk)
	}
	return s.Kind.String()
}

// Imbalance runs the collapsed form of the kernel under each schedule
// kind and reports the per-thread work distribution: iteration counts,
// busy and recovery times (measured per chunk), and the balance statistics
// (max/mean, coefficient of variation).
func Imbalance(opts ImbalanceOptions) ([]ImbalanceRow, error) {
	if opts.Threads <= 0 {
		opts.Threads = 8
	}
	if opts.Kernel == "" {
		opts.Kernel = "correlation"
	}
	k, err := kernels.ByName(opts.Kernel)
	if err != nil {
		return nil, err
	}
	p := k.BenchParams
	if opts.Quick {
		p = k.TestParams
	}
	inst := k.New(p)
	res, err := k.Collapsed()
	if err != nil {
		return nil, err
	}
	params := k.NestParams(p)
	var rows []ImbalanceRow
	for _, sched := range imbalanceSchedules() {
		inst.Reset()
		start := time.Now()
		cs, err := omp.CollapsedForChunkTelemetryCtx(nil, res, params, opts.Threads, sched,
			opts.Telemetry, func(tid int, idx []int64) { inst.RunCollapsed(idx) })
		if err != nil {
			return nil, fmt.Errorf("schedule %s: %w", scheduleLabel(sched), err)
		}
		rows = append(rows, ImbalanceRow{
			Label:  scheduleLabel(sched),
			Sched:  sched,
			Wall:   time.Since(start),
			Stats:  cs,
			Report: cs.ImbalanceReport(),
		})
	}
	return rows, nil
}

// RenderImbalance renders the per-schedule comparison as an aligned
// table, one summary row per schedule, followed by the per-thread
// breakdown of the most and least balanced runs.
func RenderImbalance(rows []ImbalanceRow, kernel string, threads int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Load imbalance of the collapsed %s kernel (%d threads)\n", kernel, threads)
	fmt.Fprintf(&b, "%-14s %10s %12s %12s %10s %10s %12s %12s\n",
		"schedule", "wall", "iter max/mu", "busy max/mu", "busy cv", "chunks", "recovery", "rootevals")
	for _, r := range rows {
		var chunks int64
		for _, t := range r.Stats.PerThread {
			chunks += t.Chunks
		}
		fmt.Fprintf(&b, "%-14s %10s %12.4f %12.4f %10.4f %10d %12s %12d\n",
			r.Label, r.Wall.Round(time.Microsecond), r.Report.IterImbalance,
			r.Report.BusyImbalance, r.Report.BusyCV, chunks,
			r.Report.TotalRecovery.Round(time.Microsecond), r.Stats.Stats.RootEvals)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "\nper-thread breakdown, %s:\n%s", rows[0].Label, rows[0].Report)
	}
	return b.String()
}
