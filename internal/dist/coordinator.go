package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// contribution to the run checksum. A failed attempt is retried, so an
// iteration of its completed prefix may be EXECUTED more than once; the
// returned contributions are buffered per attempt and folded into the
// run totals exactly once per committed pc-interval, so the Report's
// Sum/Executed are exactly-once even when execution was not. Bodies
// with external side effects must either be idempotent or apply their
// effects from a commit hook of their own keyed on the Report.
type Body func(worker int, pc int64, idx []int64) uint64

// Config shapes a sharded run. The zero value of every field selects a
// sensible default (see the field comments).
type Config struct {
	// Workers is the number of executor goroutines (default GOMAXPROCS).
	Workers int
	// Shards is the target shard count the pc-range is split into
	// (default 8×Workers). More shards = finer recovery units and better
	// balance, at more journal traffic.
	Shards int
	// MinShard floors the shard-shrinking degradation ladder: a failing
	// shard is split in half until it reaches this size (default 64).
	MinShard int64
	// MaxRetries is the per-shard retry budget before the splitting
	// ladder engages (default 3). A failed shard goes straight back to
	// the queue.
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
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
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
	// Recovery ledger: duplicate records dropped while replaying the
	// journal, retries consumed, shards split by the degradation ladder.
	Duplicates int64
	Retries    int64
	Splits     int64
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
// collapse request's core.Key, its rebase offsets — a constant translate
// shares the key, but its pc range covers other tuples, so a journal
// must not cross translations — the parameter binding by position, and
// the exact total. Two runs may exchange journals exactly when their
// fingerprints are equal, which α-renamed spellings of one run do.
func Fingerprint(res *core.Result, params map[string]int64, total int64) string {
	var b strings.Builder
	if key, rb, ok := core.Key(res.Nest, res.C, unrank.Options{}); ok {
		fmt.Fprintf(&b, "fp2|%x|off:", key)
		for k, d := range rb.Offset {
			if k > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", d)
		}
	} else {
		// No key (custom sampling etc.): fall back to the deterministic
		// rendering of the collapsed sub-nest.
		b.WriteString("nest:" + strings.ReplaceAll(res.SubNest.String(), "\n", ";"))
	}
	b.WriteString("|params:")
	for i, name := range res.SubNest.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", params[name])
	}
	fmt.Fprintf(&b, "|total:%d", total)
	return b.String()
}

// task is one pending shard (with its consumed retry budget).
type task struct {
	iv      Interval
	retries int
}

// errNeedFallback marks the ladder-exhausted state that Run converts
// into the uncollapsed fallback when AllowFallback is set.
type errNeedFallback struct{ err error }

func (e *errNeedFallback) Error() string { return e.err.Error() }
func (e *errNeedFallback) Unwrap() error { return e.err }

// coordinator hands out shards one attempt at a time: a task is either
// queued or held by exactly one executor, so every committed interval
// was executed by one attempt and commits can never collide.
type coordinator struct {
	cfg    Config
	res    *core.Result
	params map[string]int64
	body   Body
	tel    *telemetry.Registry

	// ctx is the run context every attempt executes under; cancel stops
	// them all at their next chunk boundary when the run fails.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []task
	done      IntervalSet
	total     int64
	sum       uint64
	executed  int64
	journal   *Journal
	failure   error
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
	if ctx == nil {
		ctx = context.Background()
	}

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
		cfg:    cfg,
		res:    res,
		params: params,
		body:   body,
		tel:    tel,
		total:  total,
		rep:    Report{Total: total, PerWorker: make([]WorkerStats, cfg.Workers)},
	}
	c.cond = sync.NewCond(&c.mu)
	c.shardHist = tel.Histogram("dist.shard_seconds", nil)
	for w := range c.rep.PerWorker {
		c.rep.PerWorker[w].Worker = w
	}

	if cfg.Journal != "" {
		fp := Fingerprint(res, params, total)
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
			c.rep.Duplicates = int64(st.Duplicates)
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

	c.ctx, c.cancel = context.WithCancelCause(ctx)
	defer c.cancel(nil)
	// Wake idle executors when the run context ends. The broadcast is
	// made under c.mu so it cannot slip between a waiter's ctx check
	// and its cond.Wait.
	stop := context.AfterFunc(c.ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			c.workerLoop(worker, bounds[worker])
		}(w)
	}
	wg.Wait()

	c.mu.Lock()
	runErr := c.failure
	if runErr == nil && c.done.Covered() != c.total {
		// Workers exited without failure or full coverage: the run
		// context must have been canceled between checks.
		if ctx.Err() != nil {
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

// workerLoop is one executor: take a shard, run its attempt with
// buffered effects, commit or route the failure through the recovery
// ladder, repeat until the run completes or fails.
func (c *coordinator) workerLoop(worker int, b *unrank.Bound) {
	ws := &c.rep.PerWorker[worker]
	for {
		t, ok := c.next()
		if !ok {
			return
		}
		t0 := time.Now()
		var iters int64
		var sum uint64
		_, err := omp.ShardForCtx(c.ctx, worker, b, t.iv.Lo, t.iv.Hi, omp.DefaultShardChunk,
			func(pc int64, idx []int64) {
				sum += c.body(worker, pc, idx)
				iters++
			})
		busy := time.Since(t0)
		c.shardHist.Observe(busy.Seconds())
		ws.Busy += busy
		if err != nil {
			c.fail(t, worker, err)
			continue
		}
		if c.commit(t, iters, sum) {
			ws.Shards++
			ws.Iterations += iters
		}
	}
}

// next blocks until there is a shard to hand out (FIFO), or until the
// run is complete, failed or canceled (false).
func (c *coordinator) next() (task, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.failure != nil || c.done.Covered() == c.total || c.ctx.Err() != nil {
			return task{}, false
		}
		if len(c.queue) > 0 {
			t := c.queue[0]
			c.queue = c.queue[1:]
			return t, true
		}
		c.cond.Wait()
	}
}

// failLocked records the run's first failure and cancels the run
// context so in-flight attempts stop at their next chunk boundary.
// Caller holds c.mu.
func (c *coordinator) failLocked(err error) {
	if c.failure == nil {
		c.failure = err
		c.cancel(err)
	}
}

// commit is the single point where buffered attempt effects become run
// state: the journal record is fsynced before the completion is
// acknowledged. Each shard has exactly one attempt at a time, so an
// interval that overlaps committed ranks is an invariant violation and
// fails the run. Returns whether the attempt's effects were committed.
func (c *coordinator) commit(t task, iters int64, sum uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.cond.Broadcast()
	if ov := c.done.Overlap(t.iv); ov != 0 {
		c.failLocked(fmt.Errorf("dist: shard [%d,%d] overlaps %d committed ranks: exactly-once invariant violated",
			t.iv.Lo, t.iv.Hi, ov))
		return false
	}
	if c.journal != nil {
		if err := c.journal.Append(t.iv, iters, sum); err != nil {
			c.failLocked(err)
			return false
		}
	}
	c.done.Add(t.iv)
	c.executed += iters
	c.sum += sum
	c.rep.Completions++
	c.tel.Counter("dist.completions").Inc()
	c.tel.Counter("dist.iterations").Add(iters)
	return true
}

// fail routes an attempt error through the recovery ladder: attempts
// abandoned by a failed run are dropped, cancellation propagates, and
// genuine failures go straight back to the queue until the retry budget
// is spent, then split, then exhaust.
func (c *coordinator) fail(t task, worker int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.cond.Broadcast()
	if c.failure != nil {
		return
	}
	if c.ctx.Err() != nil {
		// Run-level cancellation (deadline, Ctrl-C): not a shard fault,
		// whatever error the interrupted attempt happened to surface.
		c.failLocked(fmt.Errorf("dist: run canceled: %v: %w",
			context.Cause(c.ctx), faults.ErrCanceled))
		return
	}
	if errors.Is(err, faults.ErrCanceled) {
		c.failLocked(err)
		return
	}
	c.cfg.Logf("dist: shard [%d,%d] attempt failed (worker %d, retries %d): %v",
		t.iv.Lo, t.iv.Hi, worker, t.retries, err)
	switch {
	case t.retries < c.cfg.MaxRetries:
		t.retries++
		c.rep.Retries++
		c.tel.Counter("dist.retries").Inc()
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
		c.failLocked(&errNeedFallback{err: se})
	}
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
