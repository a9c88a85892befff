package experiments

import (
	"fmt"
	"strings"

	"repro/internal/autotune"
	"repro/internal/kernels"
	"repro/internal/schedsim"
)

// ScalingRow reports simulated makespans of one kernel for one thread
// count.
type ScalingRow struct {
	Kernel                              string
	Threads                             int
	StaticSec, DynamicSec, CollapsedSec float64
	GainVsStatic                        float64
	SpeedupCollapsed                    float64 // serial / collapsed
}

// ScalingOptions configure the thread-scaling study.
type ScalingOptions struct {
	Quick   bool
	Kernels []string // defaults to correlation, correlation_tiled, ltmp
	Threads []int    // defaults to 2, 4, 8, 12, 24, 48
}

func (o *ScalingOptions) fill() {
	if len(o.Kernels) == 0 {
		o.Kernels = []string{"correlation", "correlation_tiled", "ltmp"}
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{2, 4, 8, 12, 24, 48}
	}
}

// Scaling extends Fig. 9 along the thread axis (the paper fixes P = 12):
// measured per-unit costs are scheduled over increasing virtual thread
// counts. It shows the §II scalability argument — outer-static saturates
// at the heaviest outer iteration, while the collapsed-static makespan
// keeps shrinking as 1/P until the per-thread recovery cost dominates.
func Scaling(opts ScalingOptions) ([]ScalingRow, error) {
	opts.fill()
	var rows []ScalingRow
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

		// The serial run and the §V collapsed serial run (12 chunks),
		// alternated for two rounds with an untimed Reset before each;
		// the collapsed per-iteration cost is scaled from the median
		// within-round ratio.
		var collErr error
		secs := autotune.Alternate(2, 0, func(int) { inst.Reset() },
			func() { kernels.RunSeq(inst) },
			func() {
				if err := kernels.RunCollapsedSerialChunks(k, inst, res, p, 12); err != nil && collErr == nil {
					collErr = err
				}
			})
		if collErr != nil {
			return nil, collErr
		}
		serial := autotune.Best(secs, 0)
		collapsedSerial := serial * autotune.MedianRatio(secs, 1, 0)
		lo, hi := inst.OuterRange()
		outerWork := make([]float64, hi-lo)
		var totalUnits float64
		for i := lo; i < hi; i++ {
			outerWork[i-lo] = inst.WorkPerOuter(i)
			totalUnits += outerWork[i-lo]
		}
		for i := range outerWork {
			outerWork[i] *= serial / totalUnits
		}
		cal, err := Calibrate(res, nestParams)
		if err != nil {
			return nil, err
		}
		b, err := res.Unranker.Bind(nestParams)
		if err != nil {
			return nil, err
		}
		total := b.Total()

		bodyTime := collapsedSerial - 12*cal.Recovery
		if bodyTime < 0 {
			bodyTime = collapsedSerial
		}

		var collWork []float64
		var collUnits float64
		uniform := kernelHasUniformCollapsedWork(k)
		if !uniform {
			b.Instance().Enumerate(func(idx []int64) bool {
				wu := inst.WorkPerCollapsed(idx)
				collUnits += wu
				collWork = append(collWork, wu)
				return true
			})
		}

		for _, P := range opts.Threads {
			row := ScalingRow{Kernel: name, Threads: P}
			row.StaticSec = schedsim.Static(outerWork, P, 0)
			row.DynamicSec = schedsim.Dynamic(outerWork, P, 1, cal.Dequeue)
			if uniform {
				row.CollapsedSec = schedsim.UniformStatic(total, bodyTime/float64(total), P, cal.Recovery)
			} else {
				scaled := make([]float64, len(collWork))
				for i, wu := range collWork {
					scaled[i] = wu * bodyTime / collUnits
				}
				row.CollapsedSec = schedsim.Static(scaled, P, cal.Recovery)
			}
			row.GainVsStatic = schedsim.Gain(row.StaticSec, row.CollapsedSec)
			row.SpeedupCollapsed = serial / row.CollapsedSec
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderScaling prints the study grouped by kernel.
func RenderScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling — simulated makespans vs thread count (extension of Fig. 9)\n")
	fmt.Fprintf(&b, "%-18s %8s %11s %11s %12s %13s %9s\n",
		"kernel", "threads", "static(s)", "dynamic(s)", "collapsed(s)", "gain vs stat", "speedup")
	last := ""
	for _, r := range rows {
		name := r.Kernel
		if name == last {
			name = ""
		} else {
			last = name
		}
		fmt.Fprintf(&b, "%-18s %8d %11.4f %11.4f %12.4f %13.3f %8.1fx\n",
			name, r.Threads, r.StaticSec, r.DynamicSec, r.CollapsedSec,
			r.GainVsStatic, r.SpeedupCollapsed)
	}
	return b.String()
}
