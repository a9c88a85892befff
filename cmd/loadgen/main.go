// Command loadgen is the traffic generator for the collapsed daemon: it
// drives open-loop Poisson arrivals through a ladder of offered-load
// phases, verifies answers against local sequential enumeration, and
// records the QPS/latency/shed-rate trajectory as a BENCH_PR7.json-style
// serving report.
//
// Two targets:
//
//	-target URL   an externally running daemon
//	(default)     an in-process daemon on 127.0.0.1:0, configured by the
//	              -rate/-burst/-max-inflight/-threads flags — required
//	              for the chaos flags, which use the process-wide
//	              internal/faults injection registry
//
// Open loop means arrivals never wait for responses: each Poisson
// arrival fires one request with no retries, so overload shows up as
// 429s and latency, not as a silently slowed generator.
//
// Chaos flags (in-process target only): -chaos-panic-every N makes
// every Nth worker chunk panic inside the daemon's team,
// -chaos-perturb-roots biases every closed-form root evaluation so the
// exact-correction/escalation machinery must repair each recovery, and
// -chaos-kill-shard-every N kills every Nth in-flight shard executor
// attempt (execute requests switch to the sharded engine, -shards,
// where each kill costs one shard attempt instead of the request). Under chaos
// the differential check (-verify, on by default) still requires every
// 2xx answer to be exactly correct; with shard kills the run also
// fails unless executors actually died and sharded answers came back.
//
// -smoke is the CI gate mode: forced overload for ~2 seconds, asserting
// zero 5xx answers and a nonzero 429 shed; exit status reports the
// verdict (also used by `make loadtest`).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

type options struct {
	target      string
	nestSpec    string
	collapse    int
	params      paramFlags
	qps         float64
	duration    time.Duration
	phases      string
	mix         string
	deadline    time.Duration
	seed        int64
	jsonOut     string
	smoke       bool
	verify      bool
	quick       bool
	rate        float64
	burst       float64
	maxInflight int
	threads     int
	shards      int
	chaosPanic  int
	chaosRoots  bool
	chaosKill   int
}

type paramFlags map[string]int64

func (p paramFlags) String() string { return fmt.Sprint(map[string]int64(p)) }

func (p paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
	if err != nil {
		return err
	}
	p[strings.TrimSpace(name)] = v
	return nil
}

func main() {
	o := options{params: paramFlags{}}
	flag.StringVar(&o.target, "target", "", "daemon base URL (empty: start an in-process daemon)")
	flag.StringVar(&o.nestSpec, "nest", "i=0:N-1; j=i+1:N", "nest as 'i=lo:hi; j=lo:hi; ...' (hi exclusive)")
	flag.IntVar(&o.collapse, "collapse", 0, "collapse count (default: nest depth)")
	flag.Var(o.params, "p", "parameter binding name=value (repeatable; default N=300)")
	flag.Float64Var(&o.qps, "qps", 400, "base offered load, arrivals/s (scaled by -phases)")
	flag.DurationVar(&o.duration, "duration", 3*time.Second, "duration of each phase")
	flag.StringVar(&o.phases, "phases", "0.5,1,2", "comma-separated offered-load multipliers")
	flag.StringVar(&o.mix, "mix", "rank=3,unrank=3,count=1,execute=1,codegen=1", "endpoint mix weights")
	flag.DurationVar(&o.deadline, "deadline", 0, "per-request ?deadline_ms= (0: server default)")
	flag.Int64Var(&o.seed, "seed", 1, "PRNG seed (arrivals and query choice)")
	flag.StringVar(&o.jsonOut, "json", "", "write the serving trajectory report to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "CI smoke gate: forced overload, assert zero 5xx and nonzero 429")
	flag.BoolVar(&o.verify, "verify", true, "differential-check every 2xx answer against local enumeration")
	flag.BoolVar(&o.quick, "quick", false, "short phases (1s) for gate runs")
	flag.Float64Var(&o.rate, "rate", 200, "in-process daemon: admission rate, req/s")
	flag.Float64Var(&o.burst, "burst", 0, "in-process daemon: admission burst")
	flag.IntVar(&o.maxInflight, "max-inflight", 64, "in-process daemon: concurrency bound")
	flag.IntVar(&o.threads, "threads", 4, "in-process daemon: execute team size")
	flag.IntVar(&o.shards, "shards", 0, "execute requests use the sharded engine with this many shards (0: unsharded)")
	flag.IntVar(&o.chaosPanic, "chaos-panic-every", 0, "panic inside every Nth worker chunk (in-process only)")
	flag.BoolVar(&o.chaosRoots, "chaos-perturb-roots", false, "perturb every closed-form root evaluation (in-process only)")
	flag.IntVar(&o.chaosKill, "chaos-kill-shard-every", 0, "kill every Nth in-flight shard executor attempt (in-process only; implies -shards 8)")
	flag.Parse()

	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// oracle is the local ground truth: the sequential enumeration of the
// nest, against which every 2xx response is differential-checked.
type oracle struct {
	spec     string
	n        *nest.Nest
	c        int
	params   map[string]int64
	total    int64
	tuples   [][]int64 // pc-1 → tuple
	checksum uint64    // sum of serve.TupleHash over the enumeration
}

func buildOracle(o *options) (*oracle, error) {
	n, err := nest.ParseSpec(o.nestSpec)
	if err != nil {
		return nil, err
	}
	c := o.collapse
	if c <= 0 {
		c = n.Depth()
	}
	if len(o.params) == 0 {
		for _, p := range n.Params {
			o.params[p] = 300
		}
	}
	inst, err := n.Bind(o.params)
	if err != nil {
		return nil, err
	}
	orc := &oracle{spec: o.nestSpec, n: n, c: c, params: o.params}
	inst.Enumerate(func(idx []int64) bool {
		t := append([]int64(nil), idx[:c]...)
		orc.tuples = append(orc.tuples, t)
		orc.checksum += serve.TupleHash(t)
		orc.total++
		return true
	})
	if orc.total == 0 {
		return nil, fmt.Errorf("empty iteration domain for %v", o.params)
	}
	return orc, nil
}

// nestSpecJSON renders the oracle's nest as the structured request form.
func (orc *oracle) request() *serve.Request {
	spec := &serve.NestSpec{Params: orc.n.Params}
	for _, l := range orc.n.Loops {
		spec.Loops = append(spec.Loops, serve.LoopSpec{
			Index: l.Index, Lower: l.Lower.String(), Upper: l.Upper.String(),
		})
	}
	return &serve.Request{Nest: spec, Collapse: orc.c, Params: orc.params}
}

// phaseStats aggregates one phase's outcomes.
type phaseStats struct {
	sent, ok, r429, e5xx atomic.Int64
	wrong, sharded       atomic.Int64

	mu   sync.Mutex
	lats []time.Duration // successful answers only
}

func (ps *phaseStats) observe(d time.Duration) {
	ps.mu.Lock()
	ps.lats = append(ps.lats, d)
	ps.mu.Unlock()
}

func (ps *phaseStats) quantile(q float64) float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.lats) == 0 {
		return 0
	}
	sort.Slice(ps.lats, func(i, j int) bool { return ps.lats[i] < ps.lats[j] })
	i := int(q * float64(len(ps.lats)-1))
	return float64(ps.lats[i]) / float64(time.Millisecond)
}

func run(o *options) error {
	if o.smoke {
		// Forced overload: offer 2x the admission rate on cheap
		// endpoints, long enough for the bucket to run dry.
		o.phases = "2"
		o.qps = 2 * o.rate
		o.mix = "rank=3,unrank=3,count=1"
		if o.duration > 2*time.Second || o.quick {
			o.duration = 2 * time.Second
		}
	}
	if o.quick && !o.smoke {
		o.duration = time.Second
	}
	orc, err := buildOracle(o)
	if err != nil {
		return err
	}

	base := o.target
	var srv *serve.Server
	if base == "" {
		srv = serve.New(serve.Config{
			Threads:     o.threads,
			MaxInflight: o.maxInflight,
			RatePerSec:  o.rate,
			Burst:       o.burst,
			Registry:    telemetry.New(),
			Logf:        func(string, ...any) {}, // chaos panics are expected; keep stderr clean
		})
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			return err
		}
		base = "http://" + addr.String()
		fmt.Fprintf(os.Stderr, "loadgen: in-process daemon on %s (rate %.0f/s, inflight %d)\n",
			base, o.rate, o.maxInflight)
	} else if o.chaosPanic > 0 || o.chaosRoots || o.chaosKill > 0 {
		return fmt.Errorf("chaos flags need the in-process daemon (fault injection is process-wide)")
	}
	if o.chaosKill > 0 && o.shards == 0 {
		o.shards = 8 // shard kills need sharded execute requests to land on
	}

	mix, err := parseMix(o.mix)
	if err != nil {
		return err
	}
	client := serve.NewClient(base)
	client.MaxRetries = -1 // open loop: one shot per arrival
	client.Deadline = o.deadline

	var shardKills atomic.Int64
	if o.chaosPanic > 0 || o.chaosRoots || o.chaosKill > 0 {
		// Warm the daemon's compile cache before arming the plan: the
		// perturbation hook also fires during compile-time root
		// selection, where a biased root is an applicability failure:
		// the cache would memoize it for the shape and recovery would
		// never run. With the artifact cached, perturbation lands only
		// on the runtime recovery path, which must repair it.
		warm := serve.NewClient(base)
		if _, err := warm.Compile(context.Background(), orc.request()); err != nil {
			return fmt.Errorf("chaos warm-up compile: %w", err)
		}
		var chunkCount atomic.Int64
		plan := &faults.Plan{}
		if o.chaosPanic > 0 {
			every := int64(o.chaosPanic)
			plan.OnChunk = func(tid int, clo, chi int64) error {
				if chunkCount.Add(1)%every == 0 {
					panic("loadgen chaos: injected worker panic")
				}
				return nil
			}
		}
		if o.chaosRoots {
			plan.PerturbRoot = func(level int, x complex128) complex128 {
				return x + 1.5 // within the exact correction's reach
			}
		}
		if o.chaosKill > 0 {
			// Kill in-flight shard executors: every Nth shard attempt dies
			// at its start. The daemon's coordinator must absorb each kill
			// as one failed attempt (retried, split, or re-run uncollapsed)
			// while the response stays exactly correct.
			every := int64(o.chaosKill)
			var shardAttempts atomic.Int64
			plan.OnShard = func(worker int, lo, hi int64) error {
				if shardAttempts.Add(1)%every == 0 {
					shardKills.Add(1)
					panic("loadgen chaos: injected shard executor kill")
				}
				return nil
			}
		}
		defer faults.Activate(plan)()
		fmt.Fprintf(os.Stderr, "loadgen: chaos active (panic-every=%d, perturb-roots=%t, kill-shard-every=%d)\n",
			o.chaosPanic, o.chaosRoots, o.chaosKill)
	}

	report := experiments.ServeReport{Nest: o.nestSpec, Mix: o.mix}
	var totalWrong, total5xx, total429, totalSharded int64
	for _, ph := range strings.Split(o.phases, ",") {
		mult, err := strconv.ParseFloat(strings.TrimSpace(ph), 64)
		if err != nil || mult <= 0 {
			return fmt.Errorf("bad phase multiplier %q", ph)
		}
		target := o.qps * mult
		row := runPhase(o, orc, client, mix, target, strings.TrimSpace(ph)+"x")
		report.Phases = append(report.Phases, row.row)
		totalWrong += row.wrong
		total5xx += row.row.Errors5xx
		total429 += row.row.Rejected429
		totalSharded += row.sharded
		fmt.Fprintf(os.Stderr,
			"loadgen: phase %-5s offered %7.1f/s achieved %7.1f/s shed %5.1f%% p50 %6.2fms p99 %7.2fms 5xx %d wrong %d\n",
			row.row.Phase, row.row.OfferedQPS, row.row.AchievedQPS, 100*row.row.ShedRate,
			row.row.P50Ms, row.row.P99Ms, row.row.Errors5xx, row.wrong)
	}

	if srv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return fmt.Errorf("in-process daemon drain: %w", err)
		}
	}

	if o.jsonOut != "" {
		if err := experiments.WriteDoc(o.jsonOut, report.Doc()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadgen: trajectory written to %s\n", o.jsonOut)
	}

	if o.verify && totalWrong > 0 {
		return fmt.Errorf("%d wrong answers (differential check failed)", totalWrong)
	}
	if o.chaosKill > 0 {
		// The gate is end-to-end: executors really died, sharded answers
		// really came back, and (above) every one of them was exactly
		// correct.
		if totalSharded == 0 {
			return fmt.Errorf("shard chaos: no sharded execute answers (mix starved of execute?)")
		}
		if shardKills.Load() == 0 {
			return fmt.Errorf("shard chaos: no shard executors were killed (injection inert?)")
		}
		fmt.Fprintf(os.Stderr, "loadgen: shard chaos ok (%d executors killed across %d sharded answers, all verified)\n",
			shardKills.Load(), totalSharded)
	}
	if o.smoke {
		if total5xx > 0 {
			return fmt.Errorf("smoke: %d 5xx answers under overload (want 0)", total5xx)
		}
		if total429 == 0 {
			return fmt.Errorf("smoke: no 429 shed under forced overload (admission control inert?)")
		}
		fmt.Fprintf(os.Stderr, "loadgen: smoke ok (0 5xx, %d shed with 429)\n", total429)
	}
	return nil
}

type phaseResult struct {
	row     experiments.ServeRow
	wrong   int64
	sharded int64
}

// runPhase issues Poisson arrivals at targetQPS for o.duration, one
// goroutine per arrival, and waits for the stragglers.
func runPhase(o *options, orc *oracle, client *serve.Client, mix []mixEntry,
	targetQPS float64, name string) phaseResult {
	rng := rand.New(rand.NewSource(o.seed))
	var ps phaseStats
	var wg sync.WaitGroup
	ctx := context.Background()

	start := time.Now()
	next := start
	for {
		now := time.Now()
		if now.Sub(start) >= o.duration {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		next = next.Add(time.Duration(rng.ExpFloat64() / targetQPS * float64(time.Second)))
		ep := pickEndpoint(mix, rng.Float64())
		pc := 1 + rng.Int63n(orc.total)
		ps.sent.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(ctx, o, orc, client, ep, pc, &ps)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	sent := ps.sent.Load()
	row := experiments.ServeRow{
		Phase:       name,
		TargetQPS:   targetQPS,
		OfferedQPS:  float64(sent) / elapsed,
		AchievedQPS: float64(ps.ok.Load()) / elapsed,
		Rejected429: ps.r429.Load(),
		Errors5xx:   ps.e5xx.Load(),
		P50Ms:       ps.quantile(0.50),
		P99Ms:       ps.quantile(0.99),
	}
	if sent > 0 {
		row.ShedRate = float64(row.Rejected429) / float64(sent)
	}
	return phaseResult{row: row, wrong: ps.wrong.Load(), sharded: ps.sharded.Load()}
}

// fire sends one request and classifies the outcome, differential-
// checking 2xx payloads against the oracle.
func fire(ctx context.Context, o *options, orc *oracle, client *serve.Client,
	ep string, pc int64, ps *phaseStats) {
	req := orc.request()
	start := time.Now()
	var err error
	var wrong bool
	switch ep {
	case "rank":
		req.Index = orc.tuples[pc-1]
		var resp *serve.RankResponse
		if resp, err = client.Rank(ctx, req); err == nil && o.verify {
			wrong = resp.Pc != pc
		}
	case "unrank":
		req.Pc = pc
		var resp *serve.UnrankResponse
		if resp, err = client.Unrank(ctx, req); err == nil && o.verify {
			wrong = !equalTuple(resp.Index, orc.tuples[pc-1])
		}
	case "count":
		var resp *serve.CountResponse
		if resp, err = client.Count(ctx, req); err == nil && o.verify {
			wrong = resp.Total != orc.total
		}
	case "execute":
		req.Schedule = "dynamic,64"
		req.Shards = o.shards
		var resp *serve.ExecuteResponse
		if resp, err = client.Execute(ctx, req); err == nil {
			if o.verify {
				wrong = resp.Iterations != orc.total || resp.Checksum != orc.checksum
			}
			if resp.Sharded {
				ps.sharded.Add(1)
			}
		}
	case "codegen":
		_, err = client.Codegen(ctx, req)
	case "compile":
		_, err = client.Compile(ctx, req)
	}
	if err == nil {
		ps.ok.Add(1)
		ps.observe(time.Since(start))
		if wrong {
			ps.wrong.Add(1)
		}
		return
	}
	if ae, ok := err.(*serve.APIError); ok {
		switch {
		case ae.Status == 429:
			ps.r429.Add(1)
		case ae.Status >= 500 && ae.Status != 503:
			ps.e5xx.Add(1)
		case ae.Status == 503:
			ps.r429.Add(1) // drain/shed answers count as shed, not failures
		}
		// Other 4xx answers are neither shed nor daemon failures.
		return
	}
	ps.e5xx.Add(1) // transport error: the daemon failed us
}

func equalTuple(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type mixEntry struct {
	name   string
	weight float64 // cumulative fraction
}

// parseMix turns "rank=3,unrank=3,count=1" into a cumulative
// distribution for cheap endpoint picking.
func parseMix(s string) ([]mixEntry, error) {
	var entries []mixEntry
	totalW := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w, ok := strings.Cut(part, "=")
		weight := 1.0
		if ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(w), 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
			weight = v
		}
		name = strings.TrimSpace(name)
		switch name {
		case "rank", "unrank", "count", "execute", "codegen", "compile":
		default:
			return nil, fmt.Errorf("unknown endpoint %q in mix", name)
		}
		totalW += weight
		entries = append(entries, mixEntry{name: name, weight: totalW})
	}
	if len(entries) == 0 || totalW == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	for i := range entries {
		entries[i].weight /= totalW
	}
	return entries, nil
}

func pickEndpoint(mix []mixEntry, r float64) string {
	for _, e := range mix {
		if r < e.weight {
			return e.name
		}
	}
	return mix[len(mix)-1].name
}
