// Command perfbench is the repository benchmark: four seeded workloads
// (kernels, fine-grain, compile, serve) that drive the collapsing
// library through its public entry points, check every answer against
// an independent reference, and print the end-to-end metrics — or,
// with -trace 1, the per-layer split — as one JSON line.
//
//	go build -o perfbench . && ./perfbench -workload kernels -seed 1 -seconds 15 -trace 0
//
// See README.md for the metrics, their bounds and the layer mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one seeded input set. setup builds the inputs and their
// reference answers; round runs one fixed amount of work, checking
// every answer; close releases what setup started.
type workload interface {
	setup(seed int64, st *steps) error
	round(r *recorder)
	probe() *probeSet
	close()
}

var workloads = map[string]func() workload{
	"kernels":    func() workload { return &kernelsWL{} },
	"fine-grain": func() workload { return &fineWL{} },
	"compile":    func() workload { return &compileWL{} },
	"serve":      func() workload { return &serveWL{} },
}

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 9

// minRounds is the fewest timed rounds a run makes, however short
// -seconds is.
const minRounds = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	corrupt  bool
	traceOut string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: kernels, fine-grain, compile or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase, seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.BoolVar(&cfg.corrupt, "corrupt", false, "self-check: corrupt one answer per round (success_rate must drop)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace path of a traced run (default .bench_build/traces/<workload>-seed<seed>.json)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// steps times the named steps of one set-up, for the stderr report.
type steps struct {
	names []string
	durs  []time.Duration
}

func (s *steps) time(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	s.names = append(s.names, name)
	s.durs = append(s.durs, time.Since(t0))
	if err != nil {
		return fmt.Errorf("setup %s: %w", name, err)
	}
	return nil
}

// recorder collects the outcome of every operation of the measured
// rounds. tr and lay are nil in untraced rounds.
type recorder struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	lat       []float64 // per-operation latency, ms
	tr        *tracer
	lay       *layers
	lane      *lane // the lane of a traced round's span
	tamper    atomic.Bool
}

// op records one operation that took d; ok reports that its answer
// matched the reference.
func (r *recorder) op(d time.Duration, ok bool) {
	r.mu.Lock()
	r.attempted++
	if !ok {
		r.failed++
	}
	r.lat = append(r.lat, float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

// corrupt reports, once per round when the self-check is on, that the
// caller must falsify the answer it is about to check.
func (r *recorder) corrupt() bool { return r.tamper.CompareAndSwap(true, false) }

func run(cfg config) (*result, error) {
	// Set-up runs setupReps times from scratch; the last one is kept.
	var w workload
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			w.close()
		}
		w = workloads[cfg.workload]()
		runtime.GC()
		st := &steps{}
		t0 := time.Now()
		if err := w.setup(cfg.seed, st); err != nil {
			w.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for k, n := range st.names {
			fmt.Fprintf(os.Stderr, "setup %d %-20s %v\n", rep, n, st.durs[k].Round(time.Microsecond))
		}
	}
	defer w.close()

	// Untimed warm-up: caches fill and lazy set-up finishes before timing.
	warm := &recorder{}
	w.round(warm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up round: %d of %d answers wrong", warm.failed, warm.attempted)
	}

	if cfg.trace {
		return runTraced(cfg, w)
	}
	rec := &recorder{}
	var walls, cpus []float64
	var ends []int // operations recorded by the end of each round
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(walls) < minRounds || time.Now().Before(deadline) {
		rec.tamper.Store(cfg.corrupt)
		if err := between(w); err != nil {
			return nil, err
		}
		wall, cpu := timeRound(w, rec)
		ends = append(ends, len(rec.lat))
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
	}
	blocks := latencyBlocks(rec.lat, ends)
	fmt.Fprintf(os.Stderr, "%d rounds, %d operations in %d latency blocks; round wall p10 %.4g p50 %.4g p90 %.4g s\n",
		len(walls), len(rec.lat), len(blocks), quantile(walls, 0.1), quantile(walls, 0.5), quantile(walls, 0.9))
	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"run_s":        {median(walls), "s"},
		"cpu_s":        {median(cpus), "s"},
		"p50_ms":       {blockQuantile(blocks, 0.50), "ms"},
		"p99_ms":       {blockQuantile(blocks, 0.99), "ms"},
		"success_rate": {float64(rec.attempted-rec.failed) / float64(rec.attempted), "ratio"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
	}
	return &result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: m}, nil
}

// blockOps is the fewest operations in a latency block: a p99 over
// 1000 operations has ten samples beyond it.
const blockOps = 1000

// latencyBlocks splits the per-operation latencies into blocks of
// whole consecutive rounds (ends[k] is the number of operations after
// round k), each holding at least blockOps operations; a short tail is
// merged into the last block. A run with fewer operations is one block.
func latencyBlocks(lat []float64, ends []int) [][]float64 {
	starts := []int{0}
	for _, e := range ends {
		if e-starts[len(starts)-1] >= blockOps {
			starts = append(starts, e)
		}
	}
	if len(starts) > 1 {
		starts = starts[:len(starts)-1] // the last block runs to the end
	}
	blocks := make([][]float64, len(starts))
	for k, from := range starts {
		to := len(lat)
		if k+1 < len(starts) {
			to = starts[k+1]
		}
		blocks[k] = lat[from:to]
	}
	return blocks
}

// blockQuantile is the median over blocks of each block's q-quantile.
// A burst of host noise in a few seconds of a run moves a few blocks,
// not the median; a quantile pooled over the whole run would take its
// tail from the burst.
func blockQuantile(blocks [][]float64, q float64) float64 {
	qs := make([]float64, len(blocks))
	for k, b := range blocks {
		qs[k] = quantile(b, q)
	}
	return median(qs)
}

// preparer is a workload with untimed work to do before each round.
type preparer interface{ prepare() error }

// between readies the next round outside the timed phase: the
// workload's own preparation, then a collection of the garbage it left.
// Rounds without preparation get no forced collection: it would restart
// the collector's cycle at the same point of every identical round, so
// the same operations would pay for every collection, or none would,
// and that state can hold for seconds. Collecting as the heap grows
// spreads the cost over all operations.
func between(w workload) error {
	if p, ok := w.(preparer); ok {
		if err := p.prepare(); err != nil {
			return err
		}
		runtime.GC()
	}
	return nil
}

// timeRound runs one round, returning its wall and CPU (user+system)
// seconds.
func timeRound(w workload, rec *recorder) (wall, cpu float64) {
	c0 := cpuSeconds()
	t0 := time.Now()
	w.round(rec)
	wall = time.Since(t0).Seconds()
	return wall, cpuSeconds() - c0
}

// runTraced alternates untraced and traced rounds for the measured
// phase, then probes the layers the workload's rounds do not reach and
// derives every per-layer metric.
func runTraced(cfg config, w workload) (*result, error) {
	tr := newTracer()
	lay := newLayers()
	plain := &recorder{}
	traced := &recorder{tr: tr, lay: lay}
	var plainWalls, tracedWalls []float64
	var gos []goRound
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(tracedWalls) < minRounds || time.Now().Before(deadline) {
		before := readGo()
		if err := between(w); err != nil {
			return nil, err
		}
		c0 := time.Now()
		w.round(plain)
		plainWalls = append(plainWalls, time.Since(c0).Seconds())
		gos = append(gos, readGo().sub(before))

		if err := between(w); err != nil {
			return nil, err
		}
		traced.tamper.Store(cfg.corrupt)
		root := tr.lane(0).begin("round")
		c0 = time.Now()
		traced.lane = root.lane
		w.round(traced)
		root.end()
		tracedWalls = append(tracedWalls, time.Since(c0).Seconds())
	}
	lay.passes = int64(len(tracedWalls))
	ps := w.probe()
	probeTr, probeLay := newTracer(), newLayers()
	probeLay.passes = int64(ps.reps)
	if err := ps.run(probeTr, probeLay); err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	if err := tr.writeChrome(cfg.traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace not written:", err)
	} else {
		fmt.Fprintln(os.Stderr, "trace written to", cfg.traceOut)
	}
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	m := lay.metrics(tr, probeTr, probeLay)
	m["trace.overhead_ratio"] = metric{median(tracedWalls) / median(plainWalls), "ratio"}
	rounds := tr.agg("round")
	m["trace.residual_share"] = metric{rounds.self.Seconds() / rounds.dur.Seconds(), "ratio"}
	var allocs, gcs, pauses []float64
	for _, g := range gos {
		allocs = append(allocs, g.allocMB)
		gcs = append(gcs, g.gcs)
		pauses = append(pauses, g.pauseMs)
	}
	m["go.alloc_mb"] = metric{median(allocs), "MB"}
	m["go.gc_cycles"] = metric{median(gcs), "count"}
	m["go.gc_pause_ms"] = metric{median(pauses), "ms"}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// goRound is the Go runtime's cost of one round, counting the
// collection forced before it.
type goRound struct{ allocMB, gcs, pauseMs float64 }

func readGo() goRound {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goRound{float64(ms.TotalAlloc) / (1 << 20), float64(ms.NumGC), float64(ms.PauseTotalNs) / 1e6}
}

func (g goRound) sub(o goRound) goRound {
	return goRound{g.allocMB - o.allocMB, g.gcs - o.gcs, g.pauseMs - o.pauseMs}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation sample quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
