// Package autotune picks the (schedule, chunk, workers) triple for a
// collapsed loop nest by simulation against a measured cost model
// instead of live trial runs.
//
// The planner builds a work vector for the nest — exact per-unit inner
// trip counts from the Ehrhart count polynomial of the non-collapsed
// sub-nest, compressed to a bounded number of cells — calibrates the
// §V recovery and dynamic-dequeue overheads with fixed-count probes (the
// dequeue cost once per process, the recovery cost per plan until the
// live omp.recovery_seconds histogram p50 replaces it), and scores every
// candidate triple with the internal/schedsim engine: simulated makespan
// plus a penalty for thread-load imbalance.
//
// Decisions are cached in the Tuner's own LRU plan table keyed by
// core.Key × params bucket × core count, so a plan invalidates
// implicitly when the problem size leaves its bucket or GOMAXPROCS
// changes. Observed makespans feed back: when a run deviates more than
// replanDeviation from the prediction, the per-unit cost estimate is
// rescaled and the triple re-planned — self-tuning hot nests converge
// to their measured behaviour without ever running probe bodies (the
// tuned path visits exactly the multiset of iterations the static path
// does; only scheduling changes).
package autotune

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/omp"
	"repro/internal/schedsim"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// Decision is the planner's chosen execution triple plus its simulated
// expectation, so callers can print predicted-vs-actual.
type Decision struct {
	Schedule     omp.Schedule // concrete kind (never ScheduleAuto) + chunk
	Workers      int          // team size
	PredictedSec float64      // simulated makespan of the chosen triple
}

// String renders the triple the way the CLI -sched flag spells it.
func (d Decision) String() string {
	return fmt.Sprintf("%s x%d", scheduleSpec(d.Schedule), d.Workers)
}

// scheduleSpec renders an omp.Schedule in -sched grammar.
func scheduleSpec(s omp.Schedule) string {
	if s.Chunk > 0 {
		return fmt.Sprintf("%s,%d", s.Kind, s.Chunk)
	}
	return s.Kind.String()
}

// Plan is one cached planning outcome: the decision, the calibration
// and work model it was derived from (kept so online refinement can
// re-simulate without re-binding the nest), and the per-unit cost
// estimate in effect. Plans are immutable — refinement stores a new
// Plan in the cache rather than mutating a shared one.
type Plan struct {
	Key      string
	Decision Decision
	Cal      Calibration
	UnitSec  float64 // estimated seconds per work unit (one inner iteration)

	model   workModel
	replans int // generations of refinement behind this plan
}

// Replans reports how many refinement generations produced this plan
// (0 for a first-contact plan).
func (p *Plan) Replans() int { return p.replans }

// Counter names the tuner publishes on Options.Registry.
const (
	PlansMetric     = "autotune.plans"      // plans computed (cache misses)
	ReplansMetric   = "autotune.replans"    // refinements after a deviating run
	CacheHitsMetric = "autotune.cache_hits" // plans served from the cache
)

// Planner constants.
const (
	// maxUnits bounds the compressed work vector.
	maxUnits = 4096
	// replanDeviation is the relative |actual-predicted|/predicted above
	// which Observe refines the plan.
	replanDeviation = 0.25
	// defaultUnitSec seeds the per-unit cost before any observation: a
	// handful of arithmetic ops per innermost iteration.
	defaultUnitSec = 50e-9
)

// Score weights. A candidate's score, in milliseconds, is its simulated
// makespan weighted wMakespan + wP99 (for a single run the p99 latency
// is the makespan) plus wImbalance times the excess max/mean thread
// load times the makespan.
const (
	wMakespan  = 1
	wP99       = 0.25
	wImbalance = 0.1
)

// planCapacity bounds a Tuner's plan table, least recently used out. A
// plan keeps its work model (at most maxUnits cells) for refinement, so
// the bound also caps the table's memory.
const planCapacity = 1024

// Options configures a Tuner. The zero value works: telemetry is
// dropped and workers default to GOMAXPROCS.
type Options struct {
	// Registry receives the PlansMetric / ReplansMetric /
	// CacheHitsMetric counters and is consulted for the measured
	// omp.recovery_seconds histogram. Nil drops telemetry.
	Registry *telemetry.Registry
	// MaxWorkers caps the candidate team sizes. <=0 means GOMAXPROCS.
	MaxWorkers int
}

// Tuner plans and refines schedules. Safe for concurrent use.
type Tuner struct {
	opts    Options
	unitSec float64 // per-unit cost of a first-contact plan

	mu    sync.Mutex
	plans core.LRU[*Plan]
}

// New returns a Tuner with opts' defaults filled in.
func New(opts Options) *Tuner {
	if opts.MaxWorkers <= 0 {
		opts.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	return &Tuner{opts: opts, unitSec: defaultUnitSec, plans: core.NewLRU[*Plan](planCapacity)}
}

func (t *Tuner) getPlan(key string) (*Plan, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.plans.Get(key)
}

// putPlan stores (or replaces) the plan under key, evicting the least
// recently used plan when over capacity.
func (t *Tuner) putPlan(key string, p *Plan) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.plans.Put(key, p)
}

// planKey derives the cache key: the full nest's core.Key extended
// with the collapse count, the log2 bucket of every parameter value (by
// position) and the core count. Bucketing means nearby problem sizes
// share a plan while order-of-magnitude changes (or a GOMAXPROCS change)
// re-plan; constant translates and α-renamings of a nest, which have
// one work profile, share a plan too.
func planKey(res *core.Result, params map[string]int64, cores int) string {
	// The decision depends on the nest shape and the work profile, not on
	// the compile options the artifact was built with, so the key is
	// taken at default options. It is taken at FULL depth — not res.C —
	// because two nests sharing a collapsed prefix but differing in inner
	// loops (syrk vs ltmp) have different work profiles and must not
	// share a plan; the actual collapse count is appended separately.
	// Nests without a key still plan, keyed on the raw shape dimensions.
	key, _, ok := core.Key(res.Nest, len(res.Nest.Loops), unrank.Options{})
	if !ok {
		key = fmt.Sprintf("raw|np=%d|d=%d", len(res.Nest.Params), len(res.Nest.Loops))
	}
	buf := binary.AppendVarint([]byte(key), int64(res.C))
	for _, name := range res.SubNest.Params {
		bucket := -1 // bucket for v <= 0
		if v := params[name]; v > 0 {
			bucket = int(math.Round(math.Log2(float64(v))))
		}
		buf = binary.AppendVarint(buf, int64(bucket))
	}
	return string(binary.AppendVarint(buf, int64(cores)))
}

// Plan returns the cached plan for (res, params) or computes, caches
// and returns a fresh one. cached reports whether the plan was served
// from the cache.
func (t *Tuner) Plan(res *core.Result, params map[string]int64) (plan *Plan, cached bool, err error) {
	cores := runtime.GOMAXPROCS(0)
	key := planKey(res, params, cores)
	if p, ok := t.getPlan(key); ok {
		t.opts.Registry.Counter(CacheHitsMetric).Add(1)
		return p, true, nil
	}
	b, err := res.Unranker.Bind(params)
	if err != nil {
		return nil, false, err
	}
	model := buildWorkModel(res, b, params, maxUnits)
	plan = t.plan(key, model, t.calibrate(b), t.unitSec, 0)
	t.putPlan(key, plan)
	t.opts.Registry.Counter(PlansMetric).Add(1)
	return plan, false, nil
}

// calibrate assembles the cost model for one plan: the per-process
// dequeue constant plus the recovery cost — live histogram p50 when
// the nest has run enough, else sampled from the bound's own unranker.
func (t *Tuner) calibrate(b *unrank.Bound) Calibration {
	cal := Calibration{Dequeue: DequeueSec()}
	if p50, ok := recoveryP50(t.opts.Registry); ok {
		cal.Recovery = p50
		cal.RecoveryMeasured = true
		return cal
	}
	cal.Recovery = RecoverySec(b)
	return cal
}

// plan enumerates candidates and scores each by simulation, returning
// the winner as an immutable Plan.
func (t *Tuner) plan(key string, model workModel, cal Calibration, unitSec float64, replans int) *Plan {
	best := Decision{Schedule: omp.Schedule{Kind: omp.Guided, Chunk: 1}, Workers: t.opts.MaxWorkers}
	bestScore := math.Inf(1)
	// Work in seconds: scale the unit vector once per plan.
	workSec := make([]float64, len(model.work))
	for i, w := range model.work {
		workSec[i] = w * unitSec
	}
	for _, workers := range candidateWorkers(t.opts.MaxWorkers) {
		for _, pol := range candidatePolicies(model.total, workers) {
			ms, score := evaluate(workSec, model, cal, workers, pol)
			if score < bestScore {
				bestScore = score
				best = Decision{
					Schedule:     policySchedule(pol),
					Workers:      workers,
					PredictedSec: ms,
				}
			}
		}
	}
	return &Plan{
		Key:      key,
		Decision: best,
		Cal:      cal,
		UnitSec:  unitSec,
		model:    model,
		replans:  replans,
	}
}

// evaluate simulates one run of a candidate triple and scores it.
// Chunks are expressed in pcs but the work vector is in cells of G pcs,
// so the chunk and the per-chunk overhead are rescaled to cell space:
// cellChunk = max(1, chunk/G) cells, and the overhead per simulated
// cell-chunk is scaled by cellChunk*G/chunk so the total overhead
// charged across the run is preserved.
func evaluate(workSec []float64, model workModel, cal Calibration, workers int, pol schedsim.Policy) (makespanSec, score float64) {
	g := model.cellPCs
	if g < 1 {
		g = 1
	}
	chunk := float64(pol.Chunk)
	if chunk <= 0 {
		chunk = defaultChunkPCs(pol, model.total, workers)
	}
	cellChunk := math.Max(1, math.Floor(chunk/g))
	overheadScale := cellChunk * g / chunk
	cm := schedsim.CostModel{
		PerChunk:   cal.Recovery * overheadScale,
		PerDequeue: cal.Dequeue * overheadScale,
	}
	cellPol := schedsim.Policy{Kind: pol.Kind, Chunk: int(cellChunk)}
	if pol.Kind == schedsim.PolicyStatic {
		cellPol.Chunk = 0
		cm.PerChunk = cal.Recovery // one recovery per contiguous block
		cm.PerDequeue = 0
	}
	ms, loads := schedsim.Simulate(workSec, workers, cellPol, cm)
	imb := schedsim.Imbalance(loads)
	return ms, wMakespan*ms*1e3 + wP99*ms*1e3 + wImbalance*math.Max(0, imb-1)*ms*1e3
}

// defaultChunkPCs mirrors omp's implicit chunking so simulation charges
// overheads at the granularity the runtime will actually use.
func defaultChunkPCs(pol schedsim.Policy, total int64, workers int) float64 {
	switch pol.Kind {
	case schedsim.PolicyDynamic:
		return 1
	case schedsim.PolicyGuided:
		c := float64(total) / float64(2*workers)
		if c < 1 {
			c = 1
		}
		return c
	default:
		c := float64(total) / float64(workers)
		if c < 1 {
			c = 1
		}
		return c
	}
}

// policySchedule converts a simulator policy back to the runtime kind.
func policySchedule(pol schedsim.Policy) omp.Schedule {
	switch pol.Kind {
	case schedsim.PolicyStatic:
		return omp.Schedule{Kind: omp.Static}
	case schedsim.PolicyStaticChunk:
		return omp.Schedule{Kind: omp.StaticChunk, Chunk: int64(pol.Chunk)}
	case schedsim.PolicyDynamic:
		return omp.Schedule{Kind: omp.Dynamic, Chunk: int64(pol.Chunk)}
	default:
		return omp.Schedule{Kind: omp.Guided, Chunk: int64(pol.Chunk)}
	}
}

// candidateWorkers enumerates team sizes: max, halvings of max, and 1.
func candidateWorkers(max int) []int {
	var out []int
	seen := map[int]bool{}
	for w := max; w >= 1; w /= 2 {
		if !seen[w] {
			out = append(out, w)
			seen[w] = true
		}
	}
	if !seen[1] {
		out = append(out, 1)
	}
	return out
}

// candidateChunks are the chunk sizes tried for chunked policies,
// pruned to at most total/workers (a bigger chunk degenerates to
// static).
var candidateChunks = []int{1, 16, 64, 256, 1024, 4096}

// candidatePolicies enumerates the simulator policies scored per team
// size.
func candidatePolicies(total int64, workers int) []schedsim.Policy {
	limit := int(total / int64(workers))
	if limit < 1 {
		limit = 1
	}
	out := []schedsim.Policy{
		{Kind: schedsim.PolicyStatic},
		{Kind: schedsim.PolicyGuided, Chunk: 1},
		{Kind: schedsim.PolicyGuided, Chunk: 64},
	}
	for _, c := range candidateChunks {
		if c > limit && c != 1 {
			continue
		}
		out = append(out,
			schedsim.Policy{Kind: schedsim.PolicyStaticChunk, Chunk: c},
			schedsim.Policy{Kind: schedsim.PolicyDynamic, Chunk: c},
		)
	}
	return out
}

// Observe feeds an actual measured makespan back into the tuner. When
// the observation deviates from the plan's prediction by more than
// replanDeviation (and exceeds a noise floor), the per-unit cost is
// rescaled by actual/predicted, the candidates re-simulated against
// the stored work model, and the refreshed plan cached. Returns the
// plan now in effect and whether a re-plan happened.
func (t *Tuner) Observe(plan *Plan, actualSec float64) (*Plan, bool) {
	const noiseFloorSec = 100e-6
	if plan == nil || actualSec <= 0 {
		return plan, false
	}
	pred := plan.Decision.PredictedSec
	if pred <= 0 {
		return plan, false
	}
	dev := math.Abs(actualSec-pred) / pred
	if dev <= replanDeviation || math.Abs(actualSec-pred) < noiseFloorSec {
		return plan, false
	}
	// The simulated makespan is (work + overhead); attribute the full
	// deviation to the unit cost — overheads are measured, work is the
	// estimate being corrected.
	unit := plan.UnitSec * actualSec / pred
	if unit <= 0 || math.IsNaN(unit) || math.IsInf(unit, 0) {
		return plan, false
	}
	cal := plan.Cal
	if p50, ok := recoveryP50(t.opts.Registry); ok {
		cal.Recovery = p50
		cal.RecoveryMeasured = true
	}
	next := t.plan(plan.Key, plan.model, cal, unit, plan.replans+1)
	t.putPlan(plan.Key, next)
	t.opts.Registry.Counter(ReplansMetric).Add(1)
	return next, true
}

// Run is one tuned execution: a Result run through the planner's chosen
// triple, so callers never pick a schedule by hand.
type Run struct {
	Plan      *Plan
	Cached    bool          // plan served from the cache (no planning cost)
	Replanned bool          // this run's observation triggered refinement
	Actual    time.Duration // measured wall time of the parallel region
	Stats     omp.CollapsedStats
}

// PredictedSec returns the makespan the plan promised for this run.
func (r Run) PredictedSec() float64 { return r.Plan.Decision.PredictedSec }

// CollapsedFor plans (or recalls) the schedule for (res, params), runs
// body over every collapsed iteration under the chosen triple, measures
// the actual makespan, and feeds it back for online refinement. The
// visited iteration multiset is identical to any static schedule —
// only the order and the thread assignment differ.
func (t *Tuner) CollapsedFor(ctx context.Context, res *core.Result, params map[string]int64,
	body func(tid int, idx []int64)) (Run, error) {
	plan, cached, err := t.Plan(res, params)
	if err != nil {
		return Run{}, err
	}
	d := plan.Decision
	start := time.Now()
	// Chunk-granularity instrumentation: recovery histogram, live gauges
	// and counters still feed the cost model, but the body loop runs at
	// CollapsedFor speed so the measured makespan is not skewed by
	// per-iteration clock reads.
	cs, err := omp.CollapsedForChunkTelemetryCtx(ctx, res, params, d.Workers, d.Schedule, t.opts.Registry, body)
	actual := time.Since(start)
	if err != nil {
		return Run{Plan: plan, Cached: cached, Actual: actual}, err
	}
	next, replanned := t.Observe(plan, actual.Seconds())
	return Run{Plan: next, Cached: cached, Replanned: replanned, Actual: actual, Stats: cs}, nil
}
