package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/kernels"
	"repro/internal/omp"
	"repro/internal/telemetry"
)

// ---------------------------------------------------------------------
// Autotune suite — the measured end-to-end comparison behind the
// workload-driven schedule planner: for each Fig. 5 kernel, the tuned
// path (schedule "auto": measured-cost model + simulator-backed search,
// with online refinement) races a panel of hand-picked (schedule, chunk)
// choices at the same team size, all through the same §V per-iteration
// collapsed driver so the only variable is the scheduling decision.
//
// The headline numbers per kernel are the two machine-independent
// ratios: auto over the best hand choice (how close the planner gets to
// the per-kernel optimum it has never been told) and the worst hand
// choice over auto (what a user who guesses wrong pays). The suite also
// replans through a warmup run so the refinement loop has settled, and
// re-plans the same shape once more at the end to prove the decision is
// served from the plan cache. This is the source of BENCH_PR10.json
// (`make gate-baseline-autotune`).
// ---------------------------------------------------------------------

// AutotuneChoice is one hand-picked schedule's measurement for a kernel.
type AutotuneChoice struct {
	// Spec in the -sched grammar ("static", "dynamic,64", ...), run at
	// the suite's fixed team size.
	Spec string
	Sec  float64
}

// AutotuneRow is one kernel's full comparison.
type AutotuneRow struct {
	Kernel     string
	Params     map[string]int64
	Iterations int64
	// Decision is the planner's chosen triple ("dynamic,64 x8").
	Decision string
	// PredictedSec is the simulated makespan the final plan promised;
	// AutoSec the best measured tuned run after warmup.
	PredictedSec float64
	AutoSec      float64
	// Best/Worst hand-picked choices from the panel.
	BestSpec  string
	BestSec   float64
	WorstSpec string
	WorstSec  float64
	// AutoVsBest is auto over best (1.0 = matched the optimum; the
	// acceptance bar is ≤ 1.10). WorstVsAuto is worst over auto (the
	// acceptance bar is ≥ 1.3).
	AutoVsBest  float64
	WorstVsAuto float64
	// CacheHit reports the end-of-row re-plan of the same shape was
	// served from the plan cache.
	CacheHit bool
	Choices  []AutotuneChoice
}

// AutotuneReport is the suite's result; Doc is its BENCH_PR10.json
// document.
type AutotuneReport struct {
	Threads int
	Quick   bool
	Reps    int
	Warmups int
	Kernels []AutotuneRow
	// Telemetry totals across the whole suite: plans computed, online
	// replans, and plan-cache hits (the acceptance bar is > 0).
	Plans     int64
	Replans   int64
	CacheHits int64
}

// AutotuneOptions configure the suite.
type AutotuneOptions struct {
	Quick bool // small test sizes (CI smoke) instead of bench sizes
	// Threads is the team size of the hand-picked panel and the
	// tuner's worker cap (default 12, the paper's P).
	Threads int
	// Reps is the best-of repetition count per timing (default 3; 1 in
	// Quick mode).
	Reps int
	// Warmups is how many tuned runs feed the refinement loop before
	// timing starts (default 2; 1 in Quick mode).
	Warmups int
	// Kernels to run (default: correlation, covariance, syrk, trapez,
	// ltmp — uniform and imbalanced shapes from the Fig. 5 set).
	Kernels []string
	// Schedules is the hand-picked panel in -sched grammar (default:
	// static; static,64; dynamic,1; dynamic,64; guided,1).
	Schedules []string
	Verbose   func(format string, args ...interface{})
}

func (o *AutotuneOptions) fill() {
	if o.Threads <= 0 {
		o.Threads = 12
	}
	if o.Reps <= 0 {
		o.Reps = 3
		if o.Quick {
			o.Reps = 1
		}
	}
	if o.Warmups <= 0 {
		o.Warmups = 2
		if o.Quick {
			o.Warmups = 1
		}
	}
	if len(o.Kernels) == 0 {
		o.Kernels = []string{"correlation", "covariance", "syrk", "trapez", "ltmp"}
	}
	if len(o.Schedules) == 0 {
		o.Schedules = []string{"static", "static,64", "dynamic,1", "dynamic,64", "guided,1"}
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...interface{}) {}
	}
}

// Autotune runs the suite: every kernel through the tuned path and the
// hand-picked panel, best-of-Reps wall time each, on one shared tuner
// whose telemetry registry supplies the report's counter totals.
func Autotune(opts AutotuneOptions) (*AutotuneReport, error) {
	opts.fill()
	rep := &AutotuneReport{
		Threads: opts.Threads,
		Quick:   opts.Quick,
		Reps:    opts.Reps,
		Warmups: opts.Warmups,
	}
	// The panel is the hand-picked rows; "auto" is the tuned row itself.
	panel := make([]omp.Schedule, len(opts.Schedules))
	for i, spec := range opts.Schedules {
		sched, err := omp.ParseSchedule(spec)
		if err == nil && sched.Kind == omp.ScheduleAuto {
			err = errors.New("auto is the tuned row, not a panel schedule")
		}
		if err != nil {
			return nil, fmt.Errorf("autotune panel: %w", err)
		}
		panel[i] = sched
	}
	reg := telemetry.New()
	tuner := autotune.New(autotune.Options{Registry: reg, MaxWorkers: opts.Threads})
	ctx := context.Background()

	for _, name := range opts.Kernels {
		k, err := kernels.ByName(name)
		if err != nil {
			return nil, err
		}
		p := k.BenchParams
		if opts.Quick {
			p = k.TestParams
		}
		inst := k.New(p)
		res, err := buildResult(k)
		if err != nil {
			return nil, err
		}
		nestParams := k.NestParams(p)
		b, err := res.Unranker.Bind(nestParams)
		if err != nil {
			return nil, err
		}
		row := AutotuneRow{Kernel: name, Params: p, Iterations: b.Total()}
		body := func(tid int, idx []int64) { inst.RunCollapsed(idx) }

		// Hand-picked panel, through the same chunk-instrumented driver
		// the tuned path uses (nil registry: no publication), so the only
		// variable between panel and auto is the scheduling decision.
		for i, spec := range opts.Schedules {
			sched := panel[i]
			best := -1.0
			for r := 0; r < opts.Reps; r++ {
				inst.Reset()
				start := time.Now()
				if _, err := omp.CollapsedForChunkTelemetryCtx(ctx, res, nestParams, opts.Threads, sched, nil, body); err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, spec, err)
				}
				if s := time.Since(start).Seconds(); best < 0 || s < best {
					best = s
				}
			}
			opts.Verbose("%s: %-12s %.3fms", name, spec, best*1e3)
			row.Choices = append(row.Choices, AutotuneChoice{Spec: spec, Sec: best})
		}

		// Tuned path: warmup runs feed Observe so the refinement loop
		// settles, then best-of-Reps timed runs.
		var lastRun autotune.Run
		for w := 0; w < opts.Warmups; w++ {
			inst.Reset()
			if lastRun, err = tuner.CollapsedFor(ctx, res, nestParams, body); err != nil {
				return nil, fmt.Errorf("%s auto warmup: %w", name, err)
			}
		}
		autoBest := -1.0
		for r := 0; r < opts.Reps; r++ {
			inst.Reset()
			run, err := tuner.CollapsedFor(ctx, res, nestParams, body)
			if err != nil {
				return nil, fmt.Errorf("%s auto: %w", name, err)
			}
			if s := run.Actual.Seconds(); autoBest < 0 || s < autoBest {
				autoBest = s
			}
			lastRun = run
		}
		row.AutoSec = autoBest
		row.Decision = lastRun.Plan.Decision.String()
		row.PredictedSec = lastRun.Plan.Decision.PredictedSec
		opts.Verbose("%s: auto -> %s, %.3fms (predicted %.3fms)",
			name, row.Decision, autoBest*1e3, row.PredictedSec*1e3)

		// Re-plan the settled shape: must come straight from the cache.
		if _, cached, err := tuner.Plan(res, nestParams); err == nil {
			row.CacheHit = cached
		}

		for _, c := range row.Choices {
			if row.BestSec == 0 || c.Sec < row.BestSec {
				row.BestSec, row.BestSpec = c.Sec, c.Spec
			}
			if c.Sec > row.WorstSec {
				row.WorstSec, row.WorstSpec = c.Sec, c.Spec
			}
		}
		row.AutoVsBest = row.AutoSec / row.BestSec
		row.WorstVsAuto = row.WorstSec / row.AutoSec
		rep.Kernels = append(rep.Kernels, row)
	}

	snap := reg.Snapshot()
	rep.Plans = snap.Counters[autotune.PlansMetric]
	rep.Replans = snap.Counters[autotune.ReplansMetric]
	rep.CacheHits = snap.Counters[autotune.CacheHitsMetric]
	return rep, nil
}

// Rows flattens the report. Absolute wall times are host-dependent;
// the gated machine-independent rows are the two ratios: auto over the
// best hand pick (1.0 = the planner matched the optimum) and the worst
// hand pick over auto (what guessing wrong costs).
func (r *AutotuneReport) Rows() []BenchRow {
	var rows []BenchRow
	for _, k := range r.Kernels {
		add := caseRows(&rows, "autotune:"+k.Kernel, k.Params)
		add("auto_sec", Lower, k.AutoSec)
		add("best_sec", Lower, k.BestSec)
		add("auto_vs_best", Lower, k.AutoVsBest)
		add("worst_vs_auto", Higher, k.WorstVsAuto)
	}
	return rows
}

// Doc is the report as a BENCH_PR10.json document.
func (r *AutotuneReport) Doc() BenchDoc {
	return BenchDoc{Suite: "autotune", Rows: r.Rows(),
		Config: config("threads", r.Threads, "quick", r.Quick, "reps", r.Reps, "warmups", r.Warmups)}
}

// RenderAutotune renders the report as a text table.
func RenderAutotune(r *AutotuneReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Schedule autotuning vs hand-picked panel (%d threads, best of %d, %d warmups%s)\n",
		r.Threads, r.Reps, r.Warmups, map[bool]string{true: ", quick", false: ""}[r.Quick])
	fmt.Fprintf(&sb, "%-14s %-16s %10s %10s %-14s %10s %-14s %9s %9s\n",
		"kernel", "auto decision", "auto ms", "best ms", "best", "worst ms", "worst", "auto/best", "worst/auto")
	for _, row := range r.Kernels {
		fmt.Fprintf(&sb, "%-14s %-16s %10.3f %10.3f %-14s %10.3f %-14s %9.3f %9.2f\n",
			row.Kernel, row.Decision, row.AutoSec*1e3, row.BestSec*1e3, row.BestSpec,
			row.WorstSec*1e3, row.WorstSpec, row.AutoVsBest, row.WorstVsAuto)
	}
	fmt.Fprintf(&sb, "planner totals: %d plans, %d replans, %d cache hits\n",
		r.Plans, r.Replans, r.CacheHits)
	return sb.String()
}
