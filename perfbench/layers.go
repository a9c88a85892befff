package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	nonrect "repro"
	"repro/internal/autotune"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/ehrhart"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// layers accumulates the per-layer counters a traced run reads from the
// program's public statistics (unrank.Stats, omp.CollapsedStats, the
// daemon's registry); span timings live in the tracer. Counts are
// reported per pass: per traced round, or per layer-probe pass.
type layers struct {
	mu sync.Mutex

	passes int64 // traced rounds or probe passes the counters cover

	unrank     unrank.Stats
	recoveries int64
	fast       int64 // recoveries done on the first tier with no correction

	regions        int64 // instrumented collapsed regions
	busy           time.Duration
	recovery       time.Duration
	chunks         int64
	imbalance      float64       // Σ per-region max/mean busy
	dispatch       time.Duration // Σ per-region wall − busiest thread's busy time
	dispatchChunks int64         // Σ chunks of each region's busiest thread

	seqS, outerS, collS float64 // original-nest baselines vs collapsed, same inputs

	telOn, telOff []float64

	autotuneSeen            bool
	autotuneHits, replans   int64
	shardRuns, shardRetries int64
}

func newLayers() *layers { return &layers{} }

// fastRecovery reports that a recovery whose counter delta is d
// finished on the first tier with no correction.
func fastRecovery(d unrank.Stats) bool {
	return d.Corrections == 0 && d.Fallbacks == 0 && d.Searches == 0 && d.Escalations == 0 &&
		d.EscalationsPrec128 == 0 && d.EscalationsPrec256 == 0 && d.TableCorrections == 0
}

// recovered records one recovery whose counter delta is d.
func (l *layers) recovered(d unrank.Stats) {
	l.mu.Lock()
	l.unrank.Add(d)
	l.recoveries++
	if fastRecovery(d) {
		l.fast++
	}
	l.mu.Unlock()
}

// chunkRecoveries records the once-per-chunk recoveries of an
// instrumented region from its summed counters. A chunk counts as fast
// unless a correction, fallback, search or escalation was spent on it;
// with several such events in one chunk the fast count is a lower bound.
func (l *layers) chunkRecoveries(cs omp.CollapsedStats) {
	var chunks int64
	for _, t := range cs.PerThread {
		chunks += t.Chunks
	}
	s := cs.Stats
	slow := s.Corrections + s.Fallbacks + s.Searches + s.Escalations + s.EscalationsPrec128 +
		s.EscalationsPrec256 + s.TableCorrections
	l.mu.Lock()
	l.unrank.Add(s)
	l.recoveries += chunks
	l.fast += max(0, chunks-slow)
	l.mu.Unlock()
}

// region records one instrumented collapsed parallel region.
func (l *layers) region(cs omp.CollapsedStats, wall time.Duration) {
	var sum time.Duration
	var chunks int64
	var busiest omp.ThreadStats
	for _, t := range cs.PerThread {
		sum += t.Busy
		if t.Busy > busiest.Busy {
			busiest = t
		}
		chunks += t.Chunks
	}
	max := busiest.Busy
	l.mu.Lock()
	defer l.mu.Unlock()
	l.regions++
	l.dispatch += wall - max
	l.dispatchChunks += busiest.Chunks
	l.busy += sum
	for _, t := range cs.PerThread {
		l.recovery += t.Recovery
	}
	l.chunks += chunks
	if sum > 0 {
		l.imbalance += float64(max) / (float64(sum) / float64(len(cs.PerThread)))
	}
}

func (l *layers) baseline(seq, outer, coll float64) {
	l.mu.Lock()
	l.seqS += seq
	l.outerS += outer
	l.collS += coll
	l.mu.Unlock()
}

// daemon adds the autotune counter deltas between two registry
// snapshots' counters.
func (l *layers) daemon(before, after map[string]int64) {
	l.mu.Lock()
	l.autotuneSeen = true
	l.autotuneHits += after["autotune.cache_hits"] - before["autotune.cache_hits"]
	l.replans += after["autotune.replans"] - before["autotune.replans"]
	l.mu.Unlock()
}

func (l *layers) sharded(retries int64) {
	l.mu.Lock()
	l.shardRuns++
	l.shardRetries += retries
	l.mu.Unlock()
}

// metricFn derives one per-layer metric; ok is false when the source
// saw no activity of that layer.
type metricFn func(tr *tracer, l *layers) (v float64, ok bool)

func spanMedian(name string, scale float64) metricFn {
	return func(tr *tracer, _ *layers) (float64, bool) {
		a := tr.agg(name)
		return median(a.samples) * scale, a.count > 0
	}
}

// spanPerItem is Σ span time ÷ Σ items, in ns.
func spanPerItem(name string) metricFn {
	return func(tr *tracer, _ *layers) (float64, bool) {
		a := tr.agg(name)
		if a.items == 0 {
			return 0, false
		}
		return float64(a.dur.Nanoseconds()) / float64(a.items), true
	}
}

func unrankCount(f func(s unrank.Stats) int64) metricFn {
	return func(_ *tracer, l *layers) (float64, bool) {
		return l.perPass(f(l.unrank)), l.recoveries > 0
	}
}

// perPass is a counter total divided by the passes it covers, so a
// faster program, running more rounds in the same time, reads the same.
func (l *layers) perPass(n int64) float64 { return float64(n) / float64(max(l.passes, 1)) }

// perLayer lists every per-layer metric with its unit and derivation.
var perLayer = []struct {
	name, unit string
	f          metricFn
}{
	{"cparse.parse_us", "us", spanMedian("cparse.parse", 1e6)},
	{"ehrhart.ranking_us", "us", spanMedian("ehrhart.ranking", 1e6)},
	{"core.collapse_us", "us", spanMedian("core.collapse", 1e6)},
	{"core.cache_hit_us", "us", spanMedian("core.cache_hit", 1e6)},
	{"core.cache_hit_ratio", "ratio", func(tr *tracer, _ *layers) (float64, bool) {
		h, m := tr.agg("core.cache_hit").count, tr.agg("core.collapse").count
		return float64(h) / float64(h+m), h > 0
	}},
	{"codegen.emit_us", "us", spanMedian("codegen.emit", 1e6)},
	{"unrank.bind_us", "us", spanMedian("unrank.bind", 1e6)},
	{"unrank.recover_ns", "ns", spanPerItem("unrank.recover")},
	{"unrank.recoveries", "count", func(_ *tracer, l *layers) (float64, bool) {
		return l.perPass(l.recoveries), l.recoveries > 0
	}},
	{"unrank.root_evals", "count", unrankCount(func(s unrank.Stats) int64 { return s.RootEvals })},
	{"unrank.corrections", "count", unrankCount(func(s unrank.Stats) int64 { return s.Corrections + s.TableCorrections })},
	{"unrank.searches", "count", unrankCount(func(s unrank.Stats) int64 { return s.Searches })},
	{"unrank.table_lookups", "count", unrankCount(func(s unrank.Stats) int64 { return s.TableLookups })},
	{"unrank.escalations", "count", unrankCount(func(s unrank.Stats) int64 {
		return s.Escalations + s.EscalationsPrec128 + s.EscalationsPrec256
	})},
	{"unrank.fast_path_ratio", "ratio", func(_ *tracer, l *layers) (float64, bool) {
		return float64(l.fast) / float64(l.recoveries), l.recoveries > 0
	}},
	{"core.iter_ns", "ns", spanPerItem("core.iter")},
	{"omp.run_s", "s", spanMedian("omp.run", 1)},
	{"omp.chunks", "count", func(_ *tracer, l *layers) (float64, bool) {
		return float64(l.chunks) / float64(l.regions), l.regions > 0
	}},
	{"omp.dispatch_ns", "ns", func(_ *tracer, l *layers) (float64, bool) {
		return float64(l.dispatch.Nanoseconds()) / float64(l.dispatchChunks), l.dispatchChunks > 0
	}},
	{"omp.recovery_share", "ratio", func(_ *tracer, l *layers) (float64, bool) {
		return l.recovery.Seconds() / l.busy.Seconds(), l.busy > 0
	}},
	{"omp.imbalance", "ratio", func(_ *tracer, l *layers) (float64, bool) {
		return l.imbalance / float64(l.regions), l.regions > 0
	}},
	{"omp.speedup_vs_outer", "ratio", func(_ *tracer, l *layers) (float64, bool) {
		return l.outerS / l.collS, l.collS > 0
	}},
	{"kernels.seq_s", "s", func(_ *tracer, l *layers) (float64, bool) { return l.seqS, l.seqS > 0 }},
	{"kernels.outer_s", "s", func(_ *tracer, l *layers) (float64, bool) { return l.outerS, l.outerS > 0 }},
	{"autotune.plan_us", "us", spanMedian("autotune.plan", 1e6)},
	{"autotune.cache_hits", "count", func(_ *tracer, l *layers) (float64, bool) {
		return l.perPass(l.autotuneHits), l.autotuneSeen
	}},
	{"autotune.replans", "count", func(_ *tracer, l *layers) (float64, bool) {
		return l.perPass(l.replans), l.autotuneSeen
	}},
	{"serve.compile_p50_ms", "ms", spanMedian("serve.compile", 1e3)},
	{"serve.count_p50_ms", "ms", spanMedian("serve.count", 1e3)},
	{"serve.rank_p50_ms", "ms", spanMedian("serve.rank", 1e3)},
	{"serve.unrank_p50_ms", "ms", spanMedian("serve.unrank", 1e3)},
	{"serve.execute_p50_ms", "ms", spanMedian("serve.execute", 1e3)},
	{"serve.codegen_p50_ms", "ms", spanMedian("serve.codegen", 1e3)},
	{"serve.inproc_us", "us", spanMedian("serve.inproc", 1e6)},
	{"dist.execute_p50_ms", "ms", spanMedian("dist.execute", 1e3)},
	{"dist.shard_retries", "count", func(_ *tracer, l *layers) (float64, bool) {
		return l.perPass(l.shardRetries), l.shardRuns > 0
	}},
	{"telemetry.overhead_ratio", "ratio", func(_ *tracer, l *layers) (float64, bool) {
		return median(l.telOn) / median(l.telOff), len(l.telOff) > 0
	}},
}

// metrics derives every per-layer metric from the workload's traced
// rounds, falling back to the layer probe for layers the rounds do not
// reach. The source of each is logged to stderr.
func (l *layers) metrics(tr *tracer, probeTr *tracer, probe *layers) map[string]metric {
	m := map[string]metric{}
	for _, pl := range perLayer {
		v, ok := pl.f(tr, l)
		src := "rounds"
		if !ok {
			v, ok = pl.f(probeTr, probe)
			src = "probe"
		}
		if !ok {
			src = "none"
		}
		fmt.Fprintf(os.Stderr, "layer %-26s %-6s %g\n", pl.name, src, v)
		m[pl.name] = metric{v, pl.unit}
	}
	return m
}

// probeShape is one nest the layer probe drives through every layer.
type probeShape struct {
	name   string
	src    string // annotated mini-C, "" when the shape has none
	n      *nest.Nest
	c      int
	params map[string]int64 // modest binding: executes take milliseconds
	opts   unrank.Options
}

// probeSet is the layer probe of a workload: its own shapes, driven
// once through every layer so that a traced run reports each layer even
// where the workload's rounds bypass it. baseline, when set, replaces
// the generic original-nest baseline (the kernels workload times its
// real kernels).
type probeSet struct {
	shapes   []probeShape
	reps     int
	baseline func(tr *tracer, l *layers) error
}

// run drives every probe shape through each layer reps times.
func (ps *probeSet) run(tr *tracer, l *layers) error {
	ln := tr.lane(0)
	ctx := context.Background()
	srv := serve.New(serve.Config{Threads: 2, Logf: func(string, ...any) {}})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	client := newClient("http://" + addr.String())
	rng := rand.New(rand.NewSource(1))
	for rep := 0; rep < ps.reps; rep++ {
		for _, s := range ps.shapes {
			if err := probeShapeOnce(ctx, ln, l, s, srv, client, rng); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
	}
	if ps.baseline != nil {
		return ps.baseline(tr, l)
	}
	for _, s := range ps.shapes {
		if err := genericBaseline(ctx, l, s); err != nil {
			return fmt.Errorf("%s baseline: %w", s.name, err)
		}
	}
	return nil
}

func probeShapeOnce(ctx context.Context, ln *lane, l *layers, s probeShape, srv *serve.Server,
	client *serve.Client, rng *rand.Rand) error {
	sub := &nest.Nest{Params: s.n.Params, Loops: s.n.Loops[:s.c]}
	if s.src != "" {
		sp := ln.begin("cparse.parse")
		_, err := cparse.Parse(s.src)
		sp.end()
		if err != nil {
			return err
		}
	}
	sp := ln.begin("ehrhart.ranking")
	ehrhart.Ranking(sub)
	sp.end()
	sp = ln.begin("core.collapse")
	res, err := core.Collapse(s.n, s.c, s.opts)
	sp.end()
	if err != nil {
		return err
	}
	cache := core.NewCollapseCache(4)
	if _, err := core.CollapseCached(cache, s.n, s.c, s.opts); err != nil {
		return err
	}
	sp = ln.begin("core.cache_hit")
	_, err = core.CollapseCached(cache, s.n, s.c, s.opts)
	sp.end()
	if err != nil {
		return err
	}
	if s.opts.Mode == unrank.ModeClosedForm {
		sp = ln.begin("codegen.emit")
		_, err = codegen.EmitC(res, codegen.Options{})
		sp.end()
		if err != nil {
			return err
		}
	}
	sp = ln.begin("unrank.bind")
	b, err := res.Unranker.Bind(s.params)
	sp.end()
	if err != nil {
		return err
	}
	total := b.Total()
	if !unrankAll(ln, l, b, randomPCs(rng, total, 256), nil, nil) {
		return fmt.Errorf("recovery failed")
	}
	iters := total
	if iters > 1<<18 {
		iters = 1 << 18
	}
	sp = ln.begin("core.iter")
	sp.items(iters)
	err = core.ForRange(b, 1, iters, func(int64, []int64) {})
	sp.end()
	if err != nil {
		return err
	}

	sched := omp.Schedule{Kind: omp.Dynamic, Chunk: 16}
	var sink [2]int64
	body := func(tid int, idx []int64) { sink[tid&1]++ }
	sp = ln.begin("omp.run")
	t0 := time.Now()
	cs, err := omp.CollapsedForChunkTelemetryCtx(ctx, res, s.params, 2, sched, nil, body)
	wall := time.Since(t0)
	sp.end()
	if err != nil {
		return err
	}
	l.region(cs, wall)

	// Telemetry overhead: the public entry point with and without
	// WithTelemetry on the same fine-grained slice.
	for k := 0; k < 2; k++ {
		t0 := time.Now()
		if err := nonrect.CollapsedFor(res, s.params, 2, sched, body); err != nil {
			return err
		}
		off := time.Since(t0).Seconds()
		t0 = time.Now()
		if err := nonrect.CollapsedFor(res, s.params, 2, sched, body, nonrect.WithTelemetry(nonrect.NewTelemetry())); err != nil {
			return err
		}
		l.mu.Lock()
		l.telOff = append(l.telOff, off)
		l.telOn = append(l.telOn, time.Since(t0).Seconds())
		l.mu.Unlock()
	}

	reg := telemetry.New()
	tuner := autotune.New(autotune.Options{Registry: reg, MaxWorkers: 2})
	sp = ln.begin("autotune.plan")
	_, _, err = tuner.Plan(res, s.params)
	sp.end()
	if err != nil {
		return err
	}
	before := reg.Snapshot().Counters
	for k := 0; k < 3; k++ {
		if _, err := tuner.CollapsedFor(ctx, res, s.params, body); err != nil {
			return err
		}
	}
	l.daemon(before, reg.Snapshot().Counters)

	return probeDaemon(ctx, ln, l, s, srv, client, b)
}

// probeDaemon sends the shape to the in-process daemon once per
// endpoint, plus one rank request straight into the handler (no HTTP
// stack), checking the answers it can check cheaply.
func probeDaemon(ctx context.Context, ln *lane, l *layers, s probeShape, srv *serve.Server,
	client *serve.Client, b *unrank.Bound) error {
	if s.opts.Mode != unrank.ModeClosedForm {
		return nil // the daemon compiles closed-form only
	}
	spec := &serve.NestSpec{Params: s.n.Params}
	for _, lp := range s.n.Loops[:s.c] {
		spec.Loops = append(spec.Loops, serve.LoopSpec{Index: lp.Index, Lower: lp.Lower.String(), Upper: lp.Upper.String()})
	}
	req := func() *serve.Request { return &serve.Request{Nest: spec, Params: s.params} }
	first := make([]int64, s.c)
	b.First(first)
	call := func(name string, f func() error) error {
		sp := ln.begin(name)
		err := f()
		sp.end()
		return err
	}
	if err := call("serve.compile", func() error { _, err := client.Compile(ctx, req()); return err }); err != nil {
		return err
	}
	if err := call("serve.count", func() error {
		r, err := client.Count(ctx, req())
		if err == nil && r.Total != b.Total() {
			err = fmt.Errorf("count %d, want %d", r.Total, b.Total())
		}
		return err
	}); err != nil {
		return err
	}
	if err := call("serve.rank", func() error {
		q := req()
		q.Index = first
		r, err := client.Rank(ctx, q)
		if err == nil && r.Pc != 1 {
			err = fmt.Errorf("rank of the first tuple = %d", r.Pc)
		}
		return err
	}); err != nil {
		return err
	}
	if err := call("serve.unrank", func() error {
		q := req()
		q.Pc = 1
		r, err := client.Unrank(ctx, q)
		if err == nil && !equalTuple(r.Index, first) {
			err = fmt.Errorf("unrank(1) = %v, want %v", r.Index, first)
		}
		return err
	}); err != nil {
		return err
	}
	if err := call("serve.codegen", func() error { _, err := client.Codegen(ctx, req()); return err }); err != nil {
		return err
	}
	if err := call("serve.execute", func() error {
		q := req()
		q.Schedule = "static"
		r, err := client.Execute(ctx, q)
		if err == nil && r.Iterations != b.Total() {
			err = fmt.Errorf("execute ran %d iterations, want %d", r.Iterations, b.Total())
		}
		return err
	}); err != nil {
		return err
	}
	if err := call("dist.execute", func() error {
		q := req()
		q.Shards = 4
		r, err := client.Execute(ctx, q)
		if err == nil {
			l.sharded(r.ShardRetries)
			if r.Iterations != b.Total() {
				err = fmt.Errorf("sharded execute ran %d iterations, want %d", r.Iterations, b.Total())
			}
		}
		return err
	}); err != nil {
		return err
	}
	q := req()
	q.Index = first
	body, err := json.Marshal(q)
	if err != nil {
		return err
	}
	h := srv.Handler()
	sp := ln.begin("serve.inproc")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(body)))
	sp.end()
	if w.Code != http.StatusOK {
		return fmt.Errorf("in-process rank: status %d: %s", w.Code, w.Body.String())
	}
	return nil
}

// genericBaseline times the original nest run sequentially and
// outer-loop parallel against the collapsed static run, on the same
// binding with a trivial body.
func genericBaseline(ctx context.Context, l *layers, s probeShape) error {
	res, err := core.Collapse(s.n, s.c, s.opts)
	if err != nil {
		return err
	}
	sub := &nest.Nest{Params: s.n.Params, Loops: s.n.Loops[:s.c]}
	var sink [2]int64
	body := func(tid int, idx []int64) { sink[tid&1]++ }
	static := omp.Schedule{Kind: omp.Static}
	t0 := time.Now()
	if err := omp.UncollapsedFor(ctx, sub, s.params, 1, static, body); err != nil {
		return err
	}
	seq := time.Since(t0).Seconds()
	t0 = time.Now()
	if err := omp.UncollapsedFor(ctx, sub, s.params, 2, static, body); err != nil {
		return err
	}
	outer := time.Since(t0).Seconds()
	t0 = time.Now()
	if err := omp.CollapsedFor(res, s.params, 2, static, body); err != nil {
		return err
	}
	l.baseline(seq, outer, time.Since(t0).Seconds())
	return nil
}

// unrankAll recovers every rank of pcs on b into *buf (grown as
// needed; nil for a throwaway buffer) under one "unrank.recover" span
// that covers the recoveries only, then passes each tuple to check (nil
// accepts all). With lay set it recovers the ranks a second time, after
// the span, to record each recovery's counter delta. It reports whether
// every recovery succeeded and passed check.
func unrankAll(ln *lane, lay *layers, b *unrank.Bound, pcs []int64, buf *[]int64, check func(k int, idx []int64) bool) bool {
	if buf == nil {
		buf = new([]int64)
	}
	d := b.Depth()
	if len(*buf) < len(pcs)*d {
		*buf = make([]int64, len(pcs)*d)
	}
	out := *buf
	ok := true
	sp := ln.begin("unrank.recover")
	sp.items(int64(len(pcs)))
	for k, pc := range pcs {
		if err := b.Unrank(pc, out[k*d:(k+1)*d]); err != nil {
			ok = false
		}
	}
	sp.end()
	if check != nil {
		for k := range pcs {
			if !check(k, out[k*d:(k+1)*d]) {
				ok = false
			}
		}
	}
	if lay != nil {
		recordRecoveries(lay, b, pcs)
	}
	return ok
}

// recordRecoveries recovers pcs again on b, recording each recovery's
// counter delta (recovery is deterministic, so the deltas are those of
// the timed pass).
func recordRecoveries(lay *layers, b *unrank.Bound, pcs []int64) {
	idx := b.Scratch()
	var sum unrank.Stats
	var fast int64
	for _, pc := range pcs {
		before := b.Stats()
		if b.Unrank(pc, idx) != nil {
			continue
		}
		d := b.Stats().Sub(before)
		sum.Add(d)
		if fastRecovery(d) {
			fast++
		}
	}
	lay.mu.Lock()
	lay.unrank.Add(sum)
	lay.recoveries += int64(len(pcs))
	lay.fast += fast
	lay.mu.Unlock()
}

func randomPCs(rng *rand.Rand, total int64, n int) []int64 {
	pcs := make([]int64, n)
	for k := range pcs {
		pcs[k] = 1 + rng.Int63n(total)
	}
	return pcs
}
