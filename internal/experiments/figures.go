package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/ehrhart"
	"repro/internal/kernels"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/poly"
	"repro/internal/schedsim"
)

// ---------------------------------------------------------------------
// Figure 2 — unbalanced distribution of the correlation iterations among
// threads under schedule(static).
// ---------------------------------------------------------------------

// Fig2Result reports per-thread iteration loads.
type Fig2Result struct {
	N       int64
	Threads int
	Loads   []float64 // inner (i,j) iterations per thread
	Total   float64
}

// Fig2 computes the static per-thread loads for the correlation outer
// loop: thread t gets a contiguous slice of i values, each carrying
// N-1-i inner iterations.
func Fig2(N int64, threads int) Fig2Result {
	work := make([]float64, N-1)
	for i := range work {
		work[i] = float64(N - 1 - int64(i))
	}
	loads := schedsim.StaticLoads(work, threads)
	return Fig2Result{N: N, Threads: threads, Loads: loads, Total: schedsim.Total(work)}
}

// Render formats the result like the paper's figure: one bar per thread.
func (r Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — static distribution of the correlation triangle (N=%d, %d threads)\n",
		r.N, r.Threads)
	for _, line := range schedsim.FormatLoads(r.Loads, 40) {
		fmt.Fprintln(&b, line)
	}
	avg := r.Total / float64(r.Threads)
	fmt.Fprintf(&b, "average %.0f iterations/thread; thread 0 carries %.2fx the average\n",
		avg, r.Loads[0]/avg)
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 8 — curves of r(i,0,0) − pc for the tetrahedral nest, showing
// that the symbolic-root structure is identical for every pc (§IV.D).
// ---------------------------------------------------------------------

// Fig8Point is one sample of one curve.
type Fig8Point struct {
	I float64
	Y float64
}

// Fig8Curve is the curve for one pc value.
type Fig8Curve struct {
	PC     int
	Points []Fig8Point
}

// Fig8 samples r(i,0,0) − pc for i in [-2.5, 3] and pc = 1..10, exactly
// like the paper's figure.
func Fig8() []Fig8Curve {
	tetra := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N-1"),
		nest.L("j", "0", "i+1"),
		nest.L("k", "j", "i+1"),
	)
	r := ehrhart.Ranking(tetra)
	// r(i, 0, 0): substitute j = 0, k = 0; N is absent from r for this
	// nest (bounds of the inner loops depend only on i and j).
	ri := r.Subst("j", poly.Int(0)).Subst("k", poly.Int(0))
	var curves []Fig8Curve
	for pc := 1; pc <= 10; pc++ {
		c := Fig8Curve{PC: pc}
		for i := -2.5; i <= 3.0001; i += 0.25 {
			v, err := ri.EvalFloat(map[string]float64{"i": i})
			if err != nil {
				continue
			}
			c.Points = append(c.Points, Fig8Point{I: i, Y: v - float64(pc)})
		}
		curves = append(curves, c)
	}
	return curves
}

// RenderFig8 prints the curves as aligned columns (i, then one column
// per pc).
func RenderFig8(curves []Fig8Curve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — r(i,0,0) - pc for the tetrahedral nest\n")
	fmt.Fprintf(&b, "%8s", "i")
	for _, c := range curves {
		fmt.Fprintf(&b, " pc=%-5d", c.PC)
	}
	fmt.Fprintln(&b)
	if len(curves) == 0 {
		return b.String()
	}
	for pi := range curves[0].Points {
		fmt.Fprintf(&b, "%8.2f", curves[0].Points[pi].I)
		for _, c := range curves {
			fmt.Fprintf(&b, " %8.3f", c.Points[pi].Y)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// The kernel measurement behind Figs. 9 and 10 (§VII derives both from
// one comparison): the serial program against the §V collapsed serial
// program, one recovery at the start of each of its chunks.
// ---------------------------------------------------------------------

// Timing protocol of that measurement: timingRounds alternated rounds,
// each sample repeated until timingMinTime accumulates (quickMinTime at
// Quick sizes). recoveries is the paper's chunk count, one per thread
// of its 12-core host.
const (
	recoveries    = 12
	timingRounds  = 3
	timingMinTime = 25 * time.Millisecond
	quickMinTime  = 2 * time.Millisecond
)

// kernelTiming is one kernel's measurement at its Fig. 9/10 size.
type kernelTiming struct {
	params map[string]int64 // the kernel's problem size
	inst   kernels.Instance
	res    *core.Result
	// Fastest sample of each program, in seconds per run, and the median
	// within-round ratio collapsed/serial.
	serial, collapsed, ratio float64
	// rounds[r] is round r's (serial, collapsed) seconds per run.
	rounds [][]float64
}

// measureKernel times kernels.RunSeq against the §V collapsed serial run
// with chunks recoveries in alternation, so a slow spell of the host
// cannot land on one side of the comparison. Samples repeat without
// Reset: every kernel's body is timing-idempotent (same operation count
// on every run).
func measureKernel(k *kernels.Kernel, chunks int, quick bool) (*kernelTiming, error) {
	t := &kernelTiming{params: k.BenchParams}
	minTime := timingMinTime
	if quick {
		t.params, minTime = k.TestParams, quickMinTime
	}
	t.inst = k.New(t.params)
	var err error
	if t.res, err = buildResult(k); err != nil {
		return nil, err
	}
	var runErr error
	secs := autotune.Alternate(timingRounds, minTime, nil,
		func() { kernels.RunSeq(t.inst) },
		func() {
			if err := kernels.RunCollapsedSerialChunks(k, t.inst, t.res, t.params, chunks); err != nil && runErr == nil {
				runErr = err
			}
		})
	if runErr != nil {
		return nil, runErr
	}
	t.serial, t.collapsed = autotune.Best(secs, 0), autotune.Best(secs, 1)
	t.ratio = autotune.MedianRatio(secs, 1, 0)
	t.rounds = secs
	return t, nil
}

// ---------------------------------------------------------------------
// Figure 9 — gains of collapsing vs outer-static and outer-dynamic.
// ---------------------------------------------------------------------

// Fig9Row is one kernel's entry at one thread count.
type Fig9Row struct {
	Kernel  string
	Threads int
	// Simulated makespans for Threads virtual threads (seconds).
	SerialSec, StaticSec, DynamicSec, CollapsedSec float64
	// Gains as defined in §VII: (without - with) / without.
	GainVsStatic, GainVsDynamic float64
	SpeedupCollapsed            float64 // serial / collapsed
	// Real wall-clock seconds of the goroutine runtime (only populated
	// in Real mode).
	RealStaticSec, RealDynamicSec, RealCollapsedSec float64
}

// Fig9Options configure the experiment.
type Fig9Options struct {
	Threads []int // simulated thread counts; the paper uses 12 (default)
	Quick   bool  // use small test sizes (CI) instead of bench sizes
	Real    bool  // additionally run the goroutine runtime and record wall times
	Verbose func(format string, args ...interface{})
}

func (o *Fig9Options) fill() {
	if len(o.Threads) == 0 {
		o.Threads = []int{recoveries}
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...interface{}) {}
	}
}

// Fig9 runs the gain experiment for every kernel: one row per kernel
// and thread count, kernel-major. Each kernel is measured once and
// simulated at every thread count, so the thread axis shows the §II
// scalability argument — outer-static saturates at the heaviest outer
// iteration, while the collapsed-static makespan keeps shrinking as 1/P
// until the per-thread recovery cost dominates.
func Fig9(opts Fig9Options) ([]Fig9Row, error) {
	opts.fill()
	var rows []Fig9Row
	for _, k := range kernels.All() {
		kr, err := fig9Kernel(k, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		rows = append(rows, kr...)
	}
	return rows, nil
}

func fig9Kernel(k *kernels.Kernel, opts Fig9Options) ([]Fig9Row, error) {
	t, err := measureKernel(k, recoveries, opts.Quick)
	if err != nil {
		return nil, err
	}
	m, err := newMakespanModel(k, t)
	if err != nil {
		return nil, err
	}
	opts.Verbose("%s: serial %.3fs, collapsed/serial %.3f, dequeue %.1fns, recovery %.0fns, increment %.1fns, rounds [serial collapsed] s %.4g",
		k.Name, t.serial, t.ratio, m.cal.Dequeue*1e9, m.cal.Recovery*1e9, m.cal.Increment*1e9, t.rounds)
	rows := make([]Fig9Row, 0, len(opts.Threads))
	for _, P := range opts.Threads {
		row := m.simulate(P)
		row.Kernel = k.Name
		if opts.Real {
			if err := realRuns(k, t, &row); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// makespanModel spreads one kernel's measured serial and collapsed
// times over its outer iterations and collapsed tuples by the exact
// work model, with the host's calibrated overheads.
type makespanModel struct {
	serial    float64
	outerWork []float64 // seconds per outer iteration
	// The collapsed run's time without its recoveries, and its spread
	// per tuple (collWork, nil when every tuple does identical work).
	bodySec  float64
	total    int64
	collWork []float64
	cal      Calibration
}

// newMakespanModel builds the model from a measurement taken with
// recoveries chunks.
func newMakespanModel(k *kernels.Kernel, t *kernelTiming) (*makespanModel, error) {
	nestParams := k.NestParams(t.params)
	cal, err := Calibrate(t.res, nestParams)
	if err != nil {
		return nil, err
	}
	b, err := t.res.Unranker.Bind(nestParams)
	if err != nil {
		return nil, err
	}
	m := &makespanModel{serial: t.serial, total: b.Total(), cal: cal}
	lo, hi := t.inst.OuterRange()
	m.outerWork = make([]float64, hi-lo)
	var units float64
	for i := lo; i < hi; i++ {
		m.outerWork[i-lo] = t.inst.WorkPerOuter(i)
		units += m.outerWork[i-lo]
	}
	for i := range m.outerWork {
		m.outerWork[i] *= t.serial / units
	}
	m.bodySec = t.serial*t.ratio - recoveries*cal.Recovery
	if m.bodySec < 0 {
		m.bodySec = t.serial * t.ratio
	}
	if !kernelHasUniformCollapsedWork(k) {
		units = 0
		m.collWork = make([]float64, 0, m.total)
		b.Instance().Enumerate(func(idx []int64) bool {
			wu := t.inst.WorkPerCollapsed(idx)
			units += wu
			m.collWork = append(m.collWork, wu)
			return true
		})
		for i := range m.collWork {
			m.collWork[i] *= m.bodySec / units
		}
	}
	return m, nil
}

// simulate returns the Fig. 9 makespans at P simulated threads:
// outer-static, outer-dynamic (one dequeue per outer iteration) and
// collapsed static, which pays one recovery per thread chunk.
func (m *makespanModel) simulate(P int) Fig9Row {
	row := Fig9Row{
		Threads:    P,
		SerialSec:  m.serial,
		StaticSec:  schedsim.Static(m.outerWork, P, 0),
		DynamicSec: schedsim.Dynamic(m.outerWork, P, 1, m.cal.Dequeue),
	}
	if m.collWork == nil {
		row.CollapsedSec = schedsim.UniformStatic(m.total, m.bodySec/float64(m.total), P, m.cal.Recovery)
	} else {
		row.CollapsedSec = schedsim.Static(m.collWork, P, m.cal.Recovery)
	}
	row.GainVsStatic = schedsim.Gain(row.StaticSec, row.CollapsedSec)
	row.GainVsDynamic = schedsim.Gain(row.DynamicSec, row.CollapsedSec)
	row.SpeedupCollapsed = m.serial / row.CollapsedSec
	return row
}

// realRuns times the three configurations on the goroutine runtime at
// row.Threads threads.
func realRuns(k *kernels.Kernel, t *kernelTiming, row *Fig9Row) error {
	P := row.Threads
	t.inst.Reset()
	start := time.Now()
	kernels.RunOuterParallel(t.inst, P, omp.Schedule{Kind: omp.Static})
	row.RealStaticSec = time.Since(start).Seconds()
	t.inst.Reset()
	start = time.Now()
	kernels.RunOuterParallel(t.inst, P, omp.Schedule{Kind: omp.Dynamic})
	row.RealDynamicSec = time.Since(start).Seconds()
	t.inst.Reset()
	start = time.Now()
	if err := kernels.RunCollapsedParallel(k, t.inst, t.res, t.params, P, omp.Schedule{Kind: omp.Static}); err != nil {
		return err
	}
	row.RealCollapsedSec = time.Since(start).Seconds()
	return nil
}

// kernelHasUniformCollapsedWork reports whether every collapsed
// iteration performs identical work (so the simulator can use the closed
// form instead of enumerating millions of tuples).
func kernelHasUniformCollapsedWork(k *kernels.Kernel) bool {
	switch k.Name {
	case "ltmp", "correlation_tiled", "covariance_tiled":
		return false
	}
	return true
}

// RenderFig9 prints the rows as the paper's two bar groups, one line
// per kernel and thread count.
func RenderFig9(rows []Fig9Row, real bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — gains from collapsing non-rectangular loops (simulated makespans)\n")
	fmt.Fprintf(&b, "%-18s %7s %10s %10s %10s %12s %13s %12s %8s\n",
		"kernel", "threads", "serial(s)", "static(s)", "dynamic(s)", "collapsed(s)", "gain vs stat", "gain vs dyn", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %7d %10.4f %10.4f %10.4f %12.4f %13.3f %12.3f %7.1fx\n",
			r.Kernel, r.Threads, r.SerialSec, r.StaticSec, r.DynamicSec, r.CollapsedSec,
			r.GainVsStatic, r.GainVsDynamic, r.SpeedupCollapsed)
	}
	if real {
		fmt.Fprintf(&b, "\nreal goroutine wall times (GOMAXPROCS-bound; equal makespans only with >= threads cores)\n")
		fmt.Fprintf(&b, "%-18s %7s %12s %12s %12s\n", "kernel", "threads", "static(s)", "dynamic(s)", "collapsed(s)")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-18s %7d %12.4f %12.4f %12.4f\n",
				r.Kernel, r.Threads, r.RealStaticSec, r.RealDynamicSec, r.RealCollapsedSec)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 10 — control overhead of 12 root evaluations, measured on
// serial runs (the paper's exact protocol).
// ---------------------------------------------------------------------

// Fig10Row is one kernel's overhead entry.
type Fig10Row struct {
	Kernel       string
	AllCollapsed bool
	SerialSec    float64
	CollapsedSec float64
	OverheadPct  float64
}

// Fig10Options configure the overhead experiment.
type Fig10Options struct {
	Chunks int  // number of serial chunks, each with one recovery; paper uses 12
	Quick  bool // use small test sizes
}

// Fig10 measures serial original vs serial collapsed (with Chunks
// recoveries) for every kernel, plus the fully collapsed covariance and
// symm variants the paper calls out. The overhead is the median
// within-round ratio of collapsed to original.
func Fig10(opts Fig10Options) ([]Fig10Row, error) {
	if opts.Chunks <= 0 {
		opts.Chunks = recoveries
	}
	var rows []Fig10Row
	for _, k := range append(kernels.All(), kernels.CovarianceFull, kernels.SymmFull) {
		t, err := measureKernel(k, opts.Chunks, opts.Quick)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		rows = append(rows, Fig10Row{
			Kernel: k.Name,
			// "All loops collapsed" in the paper's sense: the recovery
			// control runs at the innermost statement rate (one work unit
			// per collapsed iteration), which is where Fig. 10 shows the
			// largest overheads.
			AllCollapsed: k.Collapse == k.Nest.Depth() &&
				t.inst.WorkPerCollapsed(make([]int64, k.Collapse)) == 1,
			SerialSec:    t.serial,
			CollapsedSec: t.collapsed,
			OverheadPct:  (t.ratio - 1) * 100,
		})
	}
	return rows, nil
}

// RenderFig10 prints the overhead table.
func RenderFig10(rows []Fig10Row, chunks int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 — control overhead of %d root evaluations (serial runs)\n", chunks)
	fmt.Fprintf(&b, "%-18s %12s %14s %12s %s\n", "kernel", "serial(s)", "collapsed(s)", "overhead(%)", "")
	for _, r := range rows {
		note := ""
		if r.AllCollapsed {
			note = "(all loops collapsed)"
		}
		fmt.Fprintf(&b, "%-18s %12.4f %14.4f %12.2f %s\n",
			r.Kernel, r.SerialSec, r.CollapsedSec, r.OverheadPct, note)
	}
	return b.String()
}
