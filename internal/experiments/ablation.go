package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/unrank"
)

// AblationRow records one (kernel, recovery strategy) measurement of the
// design-space study behind §V: how often the costly closed-form
// recovery runs, and what it costs relative to the plain sequential
// program.
type AblationRow struct {
	Kernel      string
	Strategy    string // "per-iteration", "chunk=N", "once-per-12", "binary-search/chunk=N"
	SerialSec   float64
	VariantSec  float64
	OverheadPct float64
}

// ablationReps is the number of alternated timing rounds.
const ablationReps = 3

// AblationOptions configure the study.
type AblationOptions struct {
	Quick   bool
	Kernels []string // defaults to correlation, tetra, utma
	Chunks  []int64  // chunk sizes to sweep; defaults to 1, 16, 256, 4096
}

func (o *AblationOptions) fill() {
	if len(o.Kernels) == 0 {
		o.Kernels = []string{"correlation", "tetra", "utma"}
	}
	if len(o.Chunks) == 0 {
		o.Chunks = []int64{1, 16, 256, 4096}
	}
}

// Ablation measures, for each kernel, the serial cost of the collapsed
// program under different recovery strategies:
//
//   - per-iteration: full radical recovery at every iteration (the naive
//     Fig. 3 scheme, and what dynamic scheduling would force — §V);
//   - chunk=c: one recovery per c iterations (§V chunked scheme);
//   - once-per-12: one recovery per simulated thread (§V static scheme,
//     the Fig. 10 configuration);
//   - binary-search: the oracle recovery (no radicals) at every
//     iteration, quantifying what the closed form buys.
func Ablation(opts AblationOptions) ([]AblationRow, error) {
	opts.fill()
	// Each timing sample accumulates at least minTime (the overhead
	// suite's defaults), over ablationReps alternated rounds.
	minTime := 25 * time.Millisecond
	if opts.Quick {
		minTime = 2 * time.Millisecond
	}
	var rows []AblationRow
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
		res, err := k.Collapsed()
		if err != nil {
			return nil, err
		}
		resBS, err := core.Collapse(k.Nest, k.Collapse, unrank.Options{Mode: unrank.ModeBinarySearch})
		if err != nil {
			return nil, err
		}
		nestParams := k.NestParams(p)
		everyIteration := func(r *core.Result) func() error {
			return func() error {
				b, err := r.Unranker.Bind(nestParams)
				if err != nil {
					return err
				}
				return core.ForRangeEvery(b, 1, b.Total(), func(pc int64, idx []int64) {
					inst.RunCollapsed(idx)
				})
			}
		}
		strategies := []string{"per-iteration", "binary-search/per-iteration"}
		runs := []func() error{everyIteration(res), everyIteration(resBS)}
		for _, c := range opts.Chunks {
			strategies = append(strategies, fmt.Sprintf("chunk=%d", c))
			runs = append(runs, func() error {
				b, err := res.Unranker.Bind(nestParams)
				if err != nil {
					return err
				}
				nChunks := int((b.Total() + c - 1) / c)
				return kernels.RunCollapsedSerialChunks(k, inst, res, p, nChunks)
			})
		}
		strategies = append(strategies, "once-per-12")
		runs = append(runs, func() error {
			return kernels.RunCollapsedSerialChunks(k, inst, res, p, 12)
		})

		// The serial program (alternative 0) and every strategy are
		// timed in alternation, each call including its Reset; a
		// strategy's overhead is judged within a round.
		errs := make([]error, len(runs))
		alts := []func(){func() { inst.Reset(); kernels.RunSeq(inst) }}
		for s, run := range runs {
			alts = append(alts, func() {
				inst.Reset()
				if err := run(); err != nil && errs[s] == nil {
					errs[s] = err
				}
			})
		}
		secs := autotune.Alternate(ablationReps, minTime, nil, alts...)
		serial := autotune.Best(secs, 0)
		for s, strategy := range strategies {
			if errs[s] != nil {
				return nil, fmt.Errorf("ablation: %s/%s failed: %w", name, strategy, errs[s])
			}
			rows = append(rows, AblationRow{
				Kernel:      name,
				Strategy:    strategy,
				SerialSec:   serial,
				VariantSec:  autotune.Best(secs, s+1),
				OverheadPct: (autotune.MedianRatio(secs, s+1, 0) - 1) * 100,
			})
		}
	}
	return rows, nil
}

// RenderAblation prints the study as a table.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — cost of the index-recovery strategies (§V design space, serial runs)\n")
	fmt.Fprintf(&b, "%-14s %-28s %12s %12s %12s\n", "kernel", "strategy", "serial(s)", "variant(s)", "overhead(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-28s %12.4f %12.4f %12.1f\n",
			r.Kernel, r.Strategy, r.SerialSec, r.VariantSec, r.OverheadPct)
	}
	return b.String()
}
