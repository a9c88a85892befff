package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/unrank"
)

func triangle(t *testing.T) *core.Result {
	t.Helper()
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
	res, err := core.Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tupleHash is the order-independent per-tuple checksum the
// differential checks fold: any missing, extra or double-counted rank
// changes the run sum.
func tupleHash(idx []int64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range idx {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// seqBaseline enumerates the collapsed range sequentially — the oracle
// every recovered run is differentially verified against.
func seqBaseline(t *testing.T, res *core.Result, params map[string]int64) (total int64, sum uint64) {
	t.Helper()
	b, err := res.Unranker.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	total = b.Total()
	err = core.ForRange(b, 1, total, func(pc int64, idx []int64) { sum += tupleHash(idx) })
	if err != nil {
		t.Fatal(err)
	}
	return total, sum
}

func distBody(worker int, pc int64, idx []int64) uint64 { return tupleHash(idx) }

func TestRunMatchesSequential(t *testing.T) {
	res := triangle(t)
	params := map[string]int64{"N": 80}
	total, want := seqBaseline(t, res, params)
	for _, cfg := range []Config{
		{Workers: 1, Shards: 1},
		{Workers: 4, Shards: 32},
		{Workers: 3, Shards: 7},
		{Workers: 8, Shards: 64, MinShard: 8},
	} {
		rep, err := Run(context.Background(), res, params, cfg, distBody)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if rep.Total != total || rep.Executed != total || rep.Sum != want {
			t.Fatalf("cfg %+v: total=%d executed=%d sum=%#x, want %d/%d/%#x",
				cfg, rep.Total, rep.Executed, rep.Sum, total, total, want)
		}
		if rep.Completions == 0 || rep.PlannedShards == 0 {
			t.Fatalf("cfg %+v: no completions recorded: %+v", cfg, rep)
		}
	}
}

// TestRetryThenSplit fails every attempt touching one poisoned rank
// until the shard has been split down to MinShard, then lets it pass —
// exercising retries and the shrinking ladder end to end. A failed
// shard goes straight back to the queue and the fault depends only on
// the shard's coordinates, so the ledger is fixed by the shard sizes:
// N=60 gives 1830 ranks in 4 shards of 458, and the shard holding rank
// 500 fails twice (one retry, then a split) at each of the sizes 458,
// 229, 115, 58 and 29 before its 15-rank half passes.
func TestRetryThenSplit(t *testing.T) {
	res := triangle(t)
	params := map[string]int64{"N": 60}
	total, want := seqBaseline(t, res, params)

	const poison = 500
	var failures atomic.Int64
	restore := faults.Activate(&faults.Plan{
		OnShard: func(worker int, lo, hi int64) error {
			if lo <= poison && poison <= hi && hi-lo+1 > 16 {
				failures.Add(1)
				return errors.New("chaos: poisoned rank")
			}
			return nil
		},
	})
	defer restore()

	for run := 0; run < 20; run++ {
		failures.Store(0)
		rep, err := Run(context.Background(), res, params, Config{
			Workers:    4,
			Shards:     4,
			MinShard:   16,
			MaxRetries: 1,
		}, distBody)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if rep.Sum != want || rep.Executed != total {
			t.Fatalf("run %d: split run sum=%#x executed=%d, want %#x/%d",
				run, rep.Sum, rep.Executed, want, total)
		}
		if rep.Retries != 5 || rep.Splits != 5 || failures.Load() != 10 {
			t.Fatalf("run %d: retries=%d splits=%d injected failures=%d, want 5/5/10",
				run, rep.Retries, rep.Splits, failures.Load())
		}
	}
}

// TestLadderExhaustion poisons a rank unconditionally: the run must
// fail with the typed shard error once retries and splits are spent,
// unless AllowFallback degrades it to the uncollapsed engine.
func TestLadderExhaustion(t *testing.T) {
	res := triangle(t)
	params := map[string]int64{"N": 40}
	total, want := seqBaseline(t, res, params)

	restore := faults.Activate(&faults.Plan{
		OnShard: func(worker int, lo, hi int64) error {
			if lo <= 100 && 100 <= hi {
				return errors.New("chaos: permanently poisoned")
			}
			return nil
		},
	})
	defer restore()

	base := Config{
		Workers: 2, Shards: 4, MinShard: 32, MaxRetries: 1,
	}

	_, err := Run(context.Background(), res, params, base, distBody)
	if !errors.Is(err, faults.ErrShardFailed) {
		t.Fatalf("exhausted ladder error = %v, want ErrShardFailed", err)
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Interval.Len() > base.MinShard*2 {
		t.Fatalf("ShardError = %+v; want the split-down interval", se)
	}

	fb := base
	fb.AllowFallback = true
	rep, err := Run(context.Background(), res, params, fb, distBody)
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if !rep.FellBack {
		t.Fatal("FellBack not reported")
	}
	if rep.Executed != total || rep.Sum != want {
		t.Fatalf("fallback sum=%#x executed=%d, want %#x/%d", rep.Sum, rep.Executed, want, total)
	}
}

// TestExecutorPanicIsAttemptLocal crashes executors mid-shard via an
// injected panic: the attempt must die, the shard retry, and the run
// finish exactly-once — a panic never takes down the process.
func TestExecutorPanicIsAttemptLocal(t *testing.T) {
	res := triangle(t)
	params := map[string]int64{"N": 60}
	total, want := seqBaseline(t, res, params)

	var kills atomic.Int64
	restore := faults.Activate(&faults.Plan{
		OnShard: func(worker int, lo, hi int64) error {
			if kills.Add(1)%3 == 1 { // kill every third attempt, starting with the first
				panic("chaos: executor crash")
			}
			return nil
		},
	})
	defer restore()

	rep, err := Run(context.Background(), res, params, Config{
		Workers: 4, Shards: 8, MaxRetries: 3,
	}, distBody)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != total || rep.Sum != want {
		t.Fatalf("crash-recovered run sum=%#x executed=%d, want %#x/%d",
			rep.Sum, rep.Executed, want, total)
	}
	if rep.Retries == 0 {
		t.Fatalf("no retries despite %d injected crashes", kills.Load())
	}
}

func TestResumeFingerprintMismatch(t *testing.T) {
	res := triangle(t)
	journal := filepath.Join(t.TempDir(), "ckpt.journal")

	rep, err := Run(context.Background(), res, map[string]int64{"N": 20},
		Config{Workers: 2, Journal: journal}, distBody)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != rep.Total {
		t.Fatalf("seed run incomplete: %+v", rep)
	}

	// Same structure, different binding: the fingerprint must differ and
	// resume must refuse with the typed error.
	_, err = Run(context.Background(), res, map[string]int64{"N": 21},
		Config{Workers: 2, Journal: journal, Resume: true}, distBody)
	if !errors.Is(err, faults.ErrFingerprintMismatch) {
		t.Fatalf("cross-run resume = %v, want ErrFingerprintMismatch", err)
	}
}

// TestResumeFingerprintTranslation pins journals to one translation: a
// triangle translated by d shares its collapse key with every other
// translate, but its pc range covers other tuples, so a journal it wrote
// is refused for d+1 — and still accepted for an α-renamed spelling
// with the same d, which resumes to the same run sum.
func TestResumeFingerprintTranslation(t *testing.T) {
	translated := func(d int64, N, i, j string) *core.Result {
		n := nest.MustNew([]string{N},
			nest.L(i, fmt.Sprint(d), fmt.Sprintf("%s+%d", N, d-1)),
			nest.L(j, fmt.Sprintf("%s-%d", i, d-1), N))
		res, err := core.Collapse(n, 2, unrank.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const d = 518
	seed := translated(d, "N", "i", "j")
	journal := filepath.Join(t.TempDir(), "ckpt.journal")
	params := map[string]int64{"N": 20}
	total, want := seqBaseline(t, seed, params)
	if _, err := Run(context.Background(), seed, params,
		Config{Workers: 2, Journal: journal}, distBody); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), translated(d+1, "N", "i", "j"), params,
		Config{Workers: 2, Journal: journal, Resume: true}, distBody)
	if !errors.Is(err, faults.ErrFingerprintMismatch) {
		t.Fatalf("resume across translations = %v, want ErrFingerprintMismatch", err)
	}
	renamed := translated(d, "M", "x", "y")
	rep, err := Run(context.Background(), renamed, map[string]int64{"M": 20},
		Config{Workers: 2, Journal: journal, Resume: true}, distBody)
	if err != nil {
		t.Fatalf("resume from an α-renamed spelling: %v", err)
	}
	if rep.Resumed != total || rep.Executed != 0 || rep.Sum != want {
		t.Fatalf("α-renamed resume: resumed %d, executed %d, sum %#x; want %d, 0, %#x",
			rep.Resumed, rep.Executed, rep.Sum, total, want)
	}
}

// TestResumeCompleteJournal resumes a finished run: nothing to execute,
// all progress inherited.
func TestResumeCompleteJournal(t *testing.T) {
	res := triangle(t)
	params := map[string]int64{"N": 40}
	total, want := seqBaseline(t, res, params)
	journal := filepath.Join(t.TempDir(), "ckpt.journal")

	if _, err := Run(context.Background(), res, params,
		Config{Workers: 2, Journal: journal}, distBody); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), res, params,
		Config{Workers: 2, Journal: journal, Resume: true}, distBody)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 0 || rep.Resumed != total || rep.Sum != want || rep.PlannedShards != 0 {
		t.Fatalf("complete-journal resume = %+v, want executed=0 resumed=%d sum=%#x", rep, total, want)
	}
}

// TestChaosAcceptance is the acceptance scenario from the recovery
// protocol: a run suffers executor crashes mid-shard AND a coordinator
// crash (context cancel) partway through, the journal tail is then torn
// (crash mid-append), and the resumed run — still under crash chaos —
// must finish with exactly-once coverage, differentially verified
// against sequential enumeration.
func TestChaosAcceptance(t *testing.T) {
	res := triangle(t)
	params := map[string]int64{"N": 100}
	total, want := seqBaseline(t, res, params)
	journal := filepath.Join(t.TempDir(), "ckpt.journal")

	// Phase 1: single executor for a deterministic prefix — attempts 1-2
	// commit, attempt 3 crashes the executor (panic), its retry commits,
	// then the coordinator itself "crashes" (context cancel).
	ctx, cancel := context.WithCancel(context.Background())
	var attempts atomic.Int64
	restore := faults.Activate(&faults.Plan{
		OnShard: func(worker int, lo, hi int64) error {
			switch attempts.Add(1) {
			case 3:
				panic("chaos: executor crash mid-shard")
			case 7:
				cancel() // coordinator crash: lose the process, keep the journal
				return errors.New("chaos: dying with coordinator")
			}
			return nil
		},
	})
	phase1 := Config{Workers: 1, Shards: 16, Journal: journal}
	_, err := Run(ctx, res, params, phase1, distBody)
	restore()
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("phase 1 (coordinator crash) = %v, want ErrCanceled", err)
	}

	st, err := ReplayJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	covered := st.Done.Covered()
	if covered == 0 || covered == total {
		t.Fatalf("phase 1 coverage = %d of %d; the chaos script should leave a strict prefix", covered, total)
	}

	// Crash mid-append: tear the journal tail.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0badc0de {"t":"done","lo":1,"hi":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 2: resume under fresh chaos — every 4th attempt crashes —
	// with full parallelism.
	var kills atomic.Int64
	restore = faults.Activate(&faults.Plan{
		OnShard: func(worker int, lo, hi int64) error {
			if kills.Add(1)%4 == 0 {
				panic("chaos: executor crash mid-shard")
			}
			return nil
		},
	})
	defer restore()
	rep, err := Run(context.Background(), res, params, Config{
		Workers: 4, Shards: 16, Journal: journal, Resume: true,
	}, distBody)
	if err != nil {
		t.Fatalf("phase 2 (resume under chaos): %v", err)
	}

	// Exactly-once: inherited + executed covers every rank once, and the
	// order-independent checksum matches sequential enumeration exactly.
	if rep.Resumed+rep.Executed != total {
		t.Fatalf("coverage = %d resumed + %d executed, want %d total", rep.Resumed, rep.Executed, total)
	}
	if rep.Resumed != covered {
		t.Fatalf("resumed %d ranks, journal held %d", rep.Resumed, covered)
	}
	if rep.Sum != want {
		t.Fatalf("differential check failed: sum=%#x, want %#x", rep.Sum, want)
	}
	if rep.Retries == 0 {
		t.Fatalf("phase 2 saw no retries despite %d attempts with kills", kills.Load())
	}

	// And the journal is now complete: a third replay shows full coverage.
	st2, err := ReplayJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Done.Covered() != total {
		t.Fatalf("final journal coverage = %d, want %d", st2.Done.Covered(), total)
	}
}

func TestRunCanceledContext(t *testing.T) {
	res := triangle(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, res, map[string]int64{"N": 40}, Config{Workers: 2}, distBody)
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("pre-canceled run = %v, want ErrCanceled", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	res := triangle(t)
	fp1 := Fingerprint(res, map[string]int64{"N": 40}, 820)
	fp2 := Fingerprint(res, map[string]int64{"N": 41}, 861)
	if fp1 == fp2 {
		t.Fatal("fingerprint ignores the parameter binding")
	}
	if fp1 != Fingerprint(res, map[string]int64{"N": 40}, 820) {
		t.Fatal("fingerprint not deterministic")
	}
}
