package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// Body is the per-iteration work of a sharded run. It is invoked from
// executor goroutines (worker is the executor id, idx the recovered
// tuple, reused per worker — do not retain) and returns this iteration's
// contribution to the run checksum. Under speculation, lease expiry and
// retry an iteration may be EXECUTED more than once; the returned
// contributions are buffered per attempt and folded into the run totals
// exactly once per committed pc-interval, so the Report's Sum/Executed
// are exactly-once even when execution was not. Bodies with external
// side effects must either be idempotent or apply their effects from a
// commit hook of their own keyed on the Report.
type Body func(worker int, pc int64, idx []int64) uint64

// Config shapes a sharded run. The zero value of every field selects a
// sensible default (see the field comments).
type Config struct {
	// Workers is the number of executor goroutines (default GOMAXPROCS).
	Workers int
	// Shards is the target shard count the pc-range is split into
	// (default 8×Workers). More shards = finer recovery units and better
	// balance, at more lease/journal traffic.
	Shards int
	// MinShard floors the shard-shrinking degradation ladder: a failing
	// shard is split in half until it reaches this size (default 64).
	MinShard int64
	// Chunk is the intra-shard heartbeat granularity in iterations
	// (default omp.DefaultShardChunk): the lease is renewed and
	// cancellation observed once per chunk.
	Chunk int64
	// LeaseTTL bounds an executor's silence: an attempt whose last
	// heartbeat is older than this is presumed dead, its shard requeued
	// and its context canceled with faults.ErrLeaseExpired (default 1s).
	LeaseTTL time.Duration
	// SpeculateAfter is the straggler threshold: once the queue is empty,
	// an in-flight attempt older than this gets a speculative backup,
	// first completion winning (default LeaseTTL/2; negative disables).
	SpeculateAfter time.Duration
	// MaxRetries is the per-shard retry budget before the splitting
	// ladder engages (default 3). Backoff and MaxBackoff shape the
	// capped jittered exponential delay between retries (defaults 2ms
	// and 250ms).
	Backoff    time.Duration
	MaxBackoff time.Duration
	MaxRetries int
	// AllowFallback lets a run whose ladder is exhausted degrade to the
	// uncollapsed worksharing engine over the whole domain (discarding
	// committed shard progress for the returned totals) instead of
	// failing with ErrShardFailed.
	AllowFallback bool
	// Journal is the checkpoint journal path ("" disables journaling).
	// With Resume, the journal is replayed (fingerprint-validated,
	// torn tail truncated) and only uncovered intervals execute.
	Journal string
	Resume  bool
	// Registry receives the dist.* metric families (may be nil).
	Registry *telemetry.Registry
	// Seed makes retry jitter deterministic in tests (default 1).
	Seed int64
	// Logf sinks recovery-event logs (nil: silent).
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = omp.DefaultThreads()
	}
	if c.Shards <= 0 {
		c.Shards = 8 * c.Workers
	}
	if c.MinShard <= 0 {
		c.MinShard = 64
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = time.Second
	}
	if c.SpeculateAfter == 0 {
		c.SpeculateAfter = c.LeaseTTL / 2
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 2 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// WorkerStats is one executor's committed contribution.
type WorkerStats struct {
	Worker     int
	Shards     int64 // committed attempts
	Iterations int64 // committed iterations
	Busy       time.Duration
}

// Report is the outcome of a sharded run: exactly-once committed totals
// plus the recovery ledger.
type Report struct {
	// Total is the pc-range cardinality; Executed the iterations
	// committed by this run's executors; Resumed the iterations
	// inherited from a replayed journal (Executed+Resumed == Total on a
	// clean finish). Sum is the order-independent checksum over both.
	Total    int64
	Executed int64
	Resumed  int64
	Sum      uint64

	// PlannedShards is how many shards this run planned (after resume
	// complement planning); Completions how many commits landed.
	PlannedShards int
	Completions   int64
	// Recovery ledger: duplicate completions dropped at commit, leases
	// expired and reassigned, speculative backups launched and won,
	// retries consumed, shards split by the degradation ladder.
	Duplicates      int64
	LeaseExpiries   int64
	SpeculativeRuns int64
	SpeculativeWins int64
	Retries         int64
	Splits          int64
	// FellBack reports the run degraded to the uncollapsed engine.
	FellBack  bool
	PerWorker []WorkerStats
}

// Imbalance derives the executor load-balance summary from the
// per-worker committed contributions.
func (r *Report) Imbalance() telemetry.ImbalanceReport {
	loads := make([]telemetry.ThreadLoad, len(r.PerWorker))
	for i, w := range r.PerWorker {
		loads[i] = telemetry.ThreadLoad{
			TID: w.Worker, Chunks: w.Shards, Iterations: w.Iterations, Busy: w.Busy,
		}
	}
	return telemetry.NewImbalance(loads)
}

// ShardError reports a shard that exhausted the recovery ladder; it
// wraps both faults.ErrShardFailed and the final attempt's error.
type ShardError struct {
	Interval Interval
	Attempts int
	Err      error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("dist: shard [%d,%d] failed after %d attempts (retries and splits exhausted): %v",
		e.Interval.Lo, e.Interval.Hi, e.Attempts, e.Err)
}

func (e *ShardError) Unwrap() []error { return []error{faults.ErrShardFailed, e.Err} }

// Fingerprint is the identity a checkpoint journal is bound to: the
// α-invariant structural signature of the collapse request, the sorted
// parameter binding, and the exact total. Two runs may exchange
// journals exactly when their fingerprints are equal.
func Fingerprint(res *core.Result, params map[string]int64, total int64) string {
	sig, ok := core.NestSignature(res.Nest, res.C, unrank.Options{})
	if !ok {
		// Not α-canonicalizable (custom sampling etc.): fall back to the
		// deterministic rendering of the collapsed sub-nest.
		sig = "nest:" + strings.ReplaceAll(res.SubNest.String(), "\n", ";")
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "fp1|%s|params:", sig)
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", name, params[name])
	}
	fmt.Fprintf(&b, "|total:%d", total)
	return b.String()
}

// task is one pending shard (with its consumed retry budget).
type task struct {
	iv      Interval
	retries int
}

// attempt is one lease: a task assigned to an executor, heartbeating
// through lastBeat, cancelable through cancel.
type attempt struct {
	task
	id       int64
	worker   int
	spec     bool
	started  time.Time
	lastBeat int64 // UnixNano, written by the executor, read by the monitor
	ctx      context.Context
	cancel   context.CancelCauseFunc
	beatMu   sync.Mutex // serializes lastBeat writes vs monitor reads via atomic would also do
}

// errRunComplete is the cancellation cause of attempts outlived by the
// run (their interval was committed by someone else first).
var errRunComplete = errors.New("run complete")

// errNeedFallback marks the ladder-exhausted state that Run converts
// into the uncollapsed fallback when AllowFallback is set.
type errNeedFallback struct{ err error }

func (e *errNeedFallback) Error() string { return e.err.Error() }
func (e *errNeedFallback) Unwrap() error { return e.err }

type coordinator struct {
	cfg    Config
	res    *core.Result
	params map[string]int64
	body   Body
	tel    *telemetry.Registry

	runCtx context.Context

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []task
	inflight  map[int64]*attempt
	perIv     map[Interval]int // active attempts per interval
	nextID    int64
	done      IntervalSet
	total     int64
	sum       uint64
	executed  int64
	journal   *Journal
	failure   error
	rng       *rand.Rand
	shardHist *telemetry.Histogram

	rep Report
}

// Run executes body over every pc in [1, total] of the collapsed result
// under the fault-tolerant shard protocol. It returns when every rank
// has been committed exactly once (or inherited from a resumed
// journal), when ctx is canceled, or when a shard exhausts the recovery
// ladder. The returned Report carries the exactly-once totals and the
// recovery ledger; on error the Report reflects committed progress (the
// journal, when configured, preserves it for -resume).
func Run(ctx context.Context, res *core.Result, params map[string]int64, cfg Config, body Body) (*Report, error) {
	cfg.fill()
	tel := cfg.Registry

	b0, err := res.Unranker.Bind(params)
	if err != nil {
		return nil, err
	}
	total := b0.Total()
	if total >= math.MaxInt64 {
		return nil, fmt.Errorf("dist: collapsed total %d overflows the pc range: %w",
			total, faults.ErrOverflow)
	}

	c := &coordinator{
		cfg:      cfg,
		res:      res,
		params:   params,
		body:     body,
		tel:      tel,
		runCtx:   ctx,
		inflight: map[int64]*attempt{},
		perIv:    map[Interval]int{},
		total:    total,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		rep:      Report{Total: total, PerWorker: make([]WorkerStats, cfg.Workers)},
	}
	c.cond = sync.NewCond(&c.mu)
	c.shardHist = tel.Histogram("dist.shard_seconds", nil)
	for w := range c.rep.PerWorker {
		c.rep.PerWorker[w].Worker = w
	}

	fp := Fingerprint(res, params, total)
	if cfg.Journal != "" {
		if cfg.Resume {
			st, err := ReplayJournal(cfg.Journal)
			if err != nil {
				return nil, err
			}
			if st.Fingerprint != fp {
				return nil, fmt.Errorf("dist: journal %s was written by a different run (journal fp %q, this run %q): %w",
					cfg.Journal, st.Fingerprint, fp, faults.ErrFingerprintMismatch)
			}
			c.done = st.Done
			c.sum = st.Sum
			c.rep.Resumed = st.Iters
			c.rep.Duplicates += int64(st.Duplicates)
			if st.TornTail {
				cfg.Logf("dist: journal %s: torn tail truncated at last valid record", cfg.Journal)
			}
			j, err := st.Reopen(tel)
			if err != nil {
				return nil, err
			}
			c.journal = j
		} else {
			j, err := CreateJournal(cfg.Journal, fp, total, tel)
			if err != nil {
				return nil, err
			}
			c.journal = j
		}
		defer c.journal.Close()
	}

	uncovered := c.done.Complement(1, total)
	c.queue = planShards(uncovered, cfg.Shards)
	c.rep.PlannedShards = len(c.queue)
	if len(c.queue) == 0 {
		c.finishReport()
		return &c.rep, nil
	}

	// Worker-private recovery state: bind once, clone per executor.
	bounds := make([]*unrank.Bound, cfg.Workers)
	bounds[0] = b0
	for w := 1; w < cfg.Workers; w++ {
		bounds[w] = b0.Clone()
	}

	// The lease monitor and a ctx watcher keep cond.Wait honest.
	stopMonitor := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go c.monitor(stopMonitor, &monWG)
	if ctx != nil {
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			select {
			case <-ctx.Done():
				c.cond.Broadcast()
			case <-stopMonitor:
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			c.workerLoop(worker, bounds[worker])
		}(w)
	}
	wg.Wait()
	close(stopMonitor)
	monWG.Wait()

	c.mu.Lock()
	runErr := c.failure
	if runErr == nil && c.done.Covered() != c.total {
		// Workers exited without failure or full coverage: the run
		// context must have been canceled between checks.
		if ctx != nil && ctx.Err() != nil {
			runErr = fmt.Errorf("dist: %v: %w", context.Cause(ctx), faults.ErrCanceled)
		} else {
			runErr = fmt.Errorf("dist: coordinator stopped at %d/%d covered: %w",
				c.done.Covered(), c.total, faults.ErrShardFailed)
		}
	}
	c.mu.Unlock()

	var nf *errNeedFallback
	if errors.As(runErr, &nf) && cfg.AllowFallback {
		cfg.Logf("dist: recovery ladder exhausted (%v); degrading to uncollapsed worksharing", nf.err)
		tel.Counter("dist.fallbacks").Inc()
		if err := c.runFallback(ctx); err != nil {
			c.finishReport()
			return &c.rep, err
		}
		runErr = nil
	}
	c.finishReport()
	return &c.rep, runErr
}

// planShards splits the uncovered intervals into near-equal contiguous
// shards, targeting `shards` pieces across the whole uncovered set. The
// arithmetic mirrors the omp chunk planners' overflow hardening: sizes
// saturate at interval ends, and lo+size never wraps because every rank
// is < MaxInt64.
func planShards(uncovered []Interval, shards int) []task {
	remaining := int64(0)
	for _, iv := range uncovered {
		remaining += iv.Len()
	}
	if remaining == 0 {
		return nil
	}
	size := remaining / int64(shards)
	if remaining%int64(shards) != 0 {
		size++
	}
	if size < 1 {
		size = 1
	}
	var tasks []task
	for _, iv := range uncovered {
		for lo := iv.Lo; lo <= iv.Hi; {
			hi := lo + size - 1
			if hi > iv.Hi || hi < lo { // lo+size overflow saturates at the interval end
				hi = iv.Hi
			}
			tasks = append(tasks, task{iv: Interval{Lo: lo, Hi: hi}})
			if hi == iv.Hi {
				break
			}
			lo = hi + 1
		}
	}
	return tasks
}

// monitor is the lease reaper: it scans in-flight attempts every
// LeaseTTL/4 and expires those silent past the TTL — requeueing the
// shard and canceling the straggler with faults.ErrLeaseExpired so it
// stops at its next chunk boundary.
func (c *coordinator) monitor(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := c.cfg.LeaseTTL / 4
	if c.cfg.SpeculateAfter > 0 && c.cfg.SpeculateAfter/2 < tick {
		// Speculation decisions are made by idle workers woken from
		// cond.Wait; the monitor's periodic broadcast is what paces them,
		// so it must tick at straggler resolution, not just lease TTL.
		tick = c.cfg.SpeculateAfter / 2
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			cutoff := now.Add(-c.cfg.LeaseTTL).UnixNano()
			c.mu.Lock()
			for id, at := range c.inflight {
				if at.loadBeat() < cutoff {
					c.rep.LeaseExpiries++
					c.tel.Counter("dist.lease_expiries").Inc()
					c.cfg.Logf("dist: lease expired on shard [%d,%d] (worker %d); reassigning",
						at.iv.Lo, at.iv.Hi, at.worker)
					delete(c.inflight, id)
					c.perIv[at.iv]--
					at.cancel(faults.ErrLeaseExpired)
					c.queue = append(c.queue, at.task)
				}
			}
			c.mu.Unlock()
			// Wake waiters either way: requeued work, or a worker stuck in
			// Wait while the run context lapsed between broadcasts.
			c.cond.Broadcast()
		}
	}
}

func (at *attempt) beat() {
	at.beatMu.Lock()
	at.lastBeat = time.Now().UnixNano()
	at.beatMu.Unlock()
}

func (at *attempt) loadBeat() int64 {
	at.beatMu.Lock()
	defer at.beatMu.Unlock()
	return at.lastBeat
}

// workerLoop is one executor: take a lease, run the shard attempt with
// buffered effects, commit or route the failure through the recovery
// ladder, repeat until the run completes or fails.
func (c *coordinator) workerLoop(worker int, b *unrank.Bound) {
	ws := &c.rep.PerWorker[worker]
	for {
		at := c.next(worker)
		if at == nil {
			return
		}
		t0 := time.Now()
		var iters int64
		var sum uint64
		_, err := omp.ShardForCtx(at.ctx, worker, b, at.iv.Lo, at.iv.Hi, c.cfg.Chunk,
			func(int64) { at.beat() },
			func(pc int64, idx []int64) {
				sum += c.body(worker, pc, idx)
				iters++
			})
		busy := time.Since(t0)
		c.shardHist.Observe(busy.Seconds())
		if err == nil {
			if c.commit(at, iters, sum) {
				ws.Shards++
				ws.Iterations += iters
			}
			ws.Busy += busy
			continue
		}
		ws.Busy += busy
		c.fail(at, err)
	}
}

// next blocks until there is a lease to hand out, the run is complete,
// or the run failed/was canceled (nil return). Queue order is FIFO;
// with the queue empty it speculates on the oldest straggler.
func (c *coordinator) next(worker int) *attempt {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.failure != nil || c.done.Covered() == c.total {
			return nil
		}
		if c.runCtx != nil && c.runCtx.Err() != nil {
			return nil
		}
		if len(c.queue) > 0 {
			t := c.queue[0]
			c.queue = c.queue[1:]
			if c.done.Overlap(t.iv) == t.iv.Len() {
				// A requeued shard a backup already committed: skip.
				continue
			}
			return c.register(t, worker, false)
		}
		if at := c.speculateLocked(worker); at != nil {
			return at
		}
		c.cond.Wait()
	}
}

// speculateLocked launches a backup attempt for the oldest straggling
// lease (single-backup cap per interval). Caller holds c.mu.
func (c *coordinator) speculateLocked(worker int) *attempt {
	if c.cfg.SpeculateAfter < 0 {
		return nil
	}
	cutoff := time.Now().Add(-c.cfg.SpeculateAfter)
	var oldest *attempt
	for _, at := range c.inflight {
		if c.perIv[at.iv] != 1 || at.started.After(cutoff) {
			continue
		}
		if oldest == nil || at.started.Before(oldest.started) {
			oldest = at
		}
	}
	if oldest == nil {
		return nil
	}
	c.rep.SpeculativeRuns++
	c.tel.Counter("dist.speculative_runs").Inc()
	c.cfg.Logf("dist: speculating on straggler shard [%d,%d] (worker %d, running %s)",
		oldest.iv.Lo, oldest.iv.Hi, oldest.worker, time.Since(oldest.started).Round(time.Millisecond))
	return c.register(oldest.task, worker, true)
}

// register creates a lease for t on worker. Caller holds c.mu.
func (c *coordinator) register(t task, worker int, spec bool) *attempt {
	parent := c.runCtx
	if parent == nil {
		parent = context.Background()
	}
	actx, cancel := context.WithCancelCause(parent)
	c.nextID++
	at := &attempt{
		task: t, id: c.nextID, worker: worker, spec: spec,
		started: time.Now(), ctx: actx, cancel: cancel,
	}
	at.lastBeat = at.started.UnixNano()
	c.inflight[at.id] = at
	c.perIv[at.iv]++
	return at
}

// unregisterLocked drops the lease if still registered (the monitor may
// have expired it first). Caller holds c.mu.
func (c *coordinator) unregisterLocked(at *attempt) {
	if _, ok := c.inflight[at.id]; ok {
		delete(c.inflight, at.id)
		c.perIv[at.iv]--
	}
	at.cancel(errRunComplete)
}

// commit is the single point where buffered attempt effects become run
// state, exactly once per pc-interval: first completion wins, duplicate
// completions (expired-then-finished leases, losing speculative
// backups) are detected and dropped, and the journal record is fsynced
// before the completion is acknowledged. Returns whether the attempt's
// effects were committed.
func (c *coordinator) commit(at *attempt, iters int64, sum uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.unregisterLocked(at)
	switch ov := c.done.Overlap(at.iv); {
	case ov == 0:
		// First completion of this interval: commit.
	case ov == at.iv.Len():
		c.rep.Duplicates++
		c.tel.Counter("dist.duplicates").Inc()
		c.cond.Broadcast()
		return false
	default:
		// Partially covered: a split's half landed while a whole-shard
		// backup kept running. The sums cannot be attributed, so the
		// late whole-shard completion is dropped; the queued remainder
		// tasks cover the gap exactly.
		c.rep.Duplicates++
		c.tel.Counter("dist.duplicates").Inc()
		c.cond.Broadcast()
		return false
	}
	if c.journal != nil {
		if err := c.journal.Append(at.iv, iters, sum); err != nil {
			if c.failure == nil {
				c.failure = err
			}
			c.cancelInflightLocked(err)
			c.cond.Broadcast()
			return false
		}
	}
	c.done.Add(at.iv)
	c.executed += iters
	c.sum += sum
	c.rep.Completions++
	c.tel.Counter("dist.completions").Inc()
	c.tel.Counter("dist.iterations").Add(iters)
	if at.spec {
		c.rep.SpeculativeWins++
		c.tel.Counter("dist.speculative_wins").Inc()
	}
	if c.done.Covered() == c.total {
		c.cancelInflightLocked(errRunComplete)
	}
	c.cond.Broadcast()
	return true
}

// cancelInflightLocked cancels every live lease (run over or run
// failed) so executors drain at their next chunk boundary.
func (c *coordinator) cancelInflightLocked(cause error) {
	for _, at := range c.inflight {
		at.cancel(cause)
	}
}

// fail routes an attempt error through the recovery ladder:
// abandoned leases are dropped silently (their shard is already back in
// the queue), cancellation propagates, and genuine failures retry with
// capped jittered backoff, then split, then exhaust.
func (c *coordinator) fail(at *attempt, err error) {
	c.mu.Lock()
	cause := context.Cause(at.ctx)
	expired := errors.Is(cause, faults.ErrLeaseExpired)
	superseded := errors.Is(cause, errRunComplete)
	c.unregisterLocked(at)
	if c.failure != nil || expired || superseded || c.done.Covered() == c.total {
		// Abandoned attempt: its work is requeued (lease expiry), already
		// covered (lost race), or the run is over anyway.
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	if c.runCtx != nil && c.runCtx.Err() != nil {
		// Run-level cancellation (deadline, Ctrl-C): not a shard fault,
		// whatever error the interrupted attempt happened to surface.
		c.failure = fmt.Errorf("dist: run canceled: %v: %w",
			context.Cause(c.runCtx), faults.ErrCanceled)
		c.cancelInflightLocked(c.failure)
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	if errors.Is(err, faults.ErrCanceled) {
		c.failure = err
		c.cancelInflightLocked(err)
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	t := at.task
	c.cfg.Logf("dist: shard [%d,%d] attempt failed (worker %d, retries %d): %v",
		t.iv.Lo, t.iv.Hi, at.worker, t.retries, err)
	switch {
	case t.retries < c.cfg.MaxRetries:
		t.retries++
		c.rep.Retries++
		c.tel.Counter("dist.retries").Inc()
		delay := c.backoffLocked(t.retries)
		c.mu.Unlock()
		// Sleep outside the lock (the worker owns this task while it
		// backs off); other executors keep draining the queue.
		time.Sleep(delay)
		c.mu.Lock()
		c.queue = append(c.queue, t)
	case t.iv.Len() > c.cfg.MinShard:
		// Shrink the recovery unit: split in half, fresh retry budgets.
		mid := t.iv.Lo + (t.iv.Hi-t.iv.Lo)/2
		c.rep.Splits++
		c.tel.Counter("dist.splits").Inc()
		c.cfg.Logf("dist: splitting shard [%d,%d] at %d after %d retries",
			t.iv.Lo, t.iv.Hi, mid, t.retries)
		c.queue = append(c.queue,
			task{iv: Interval{Lo: t.iv.Lo, Hi: mid}},
			task{iv: Interval{Lo: mid + 1, Hi: t.iv.Hi}})
	default:
		se := &ShardError{Interval: t.iv, Attempts: t.retries + 1, Err: err}
		c.failure = &errNeedFallback{err: se}
		c.cancelInflightLocked(se)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// backoffLocked computes the capped jittered exponential retry delay.
// Caller holds c.mu (the rng is not concurrency-safe).
func (c *coordinator) backoffLocked(retry int) time.Duration {
	d := c.cfg.Backoff << uint(retry-1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	// Full jitter in [d/2, d): bounded above, never zero.
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// runFallback executes the whole collapsed domain on the uncollapsed
// worksharing engine — the last rung of the degradation ladder. The
// returned totals REPLACE committed shard progress (the fallback
// re-executes from scratch; bodies must be idempotent for this rung,
// which is why it is opt-in).
func (c *coordinator) runFallback(ctx context.Context) error {
	sub := &nest.Nest{Params: c.res.Nest.Params, Loops: c.res.Nest.Loops[:c.res.C]}
	type cell struct {
		iters int64
		sum   uint64
		_     [6]uint64 // avoid false sharing between executors
	}
	cells := make([]cell, c.cfg.Workers)
	err := omp.UncollapsedFor(ctx, sub, c.params, c.cfg.Workers, omp.Schedule{Kind: omp.Static},
		func(tid int, idx []int64) {
			cells[tid].iters++
			cells[tid].sum += c.body(tid, 0, idx)
		})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.rep.FellBack = true
	c.executed = 0
	c.sum = 0
	c.rep.Resumed = 0
	for i := range cells {
		c.executed += cells[i].iters
		c.sum += cells[i].sum
	}
	c.mu.Unlock()
	return nil
}

// finishReport folds coordinator state into the report.
func (c *coordinator) finishReport() {
	c.mu.Lock()
	c.rep.Executed = c.executed
	c.rep.Sum = c.sum
	c.mu.Unlock()
}
