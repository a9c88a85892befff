package omp

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// paritySchedules covers every schedule kind; chunk sizes 7 and 3 do not
// divide the triangular run lengths, so chunk boundaries split
// innermost runs.
var paritySchedules = []Schedule{
	{Kind: Static},
	{Kind: StaticChunk, Chunk: 1},
	{Kind: StaticChunk, Chunk: 7},
	{Kind: Dynamic},
	{Kind: Dynamic, Chunk: 5},
	{Kind: Guided},
	{Kind: Guided, Chunk: 3},
}

// parityRow is one kept collapsed entry point. run executes the nest and
// reports every visit; pc is 0 when the entry point does not expose the
// rank. scheduled rows take the schedule, the others are run once per
// team size.
type parityRow struct {
	name      string
	scheduled bool
	run       func(res *core.Result, params map[string]int64, threads int, sched Schedule,
		visit func(pc int64, idx []int64)) error
}

// rangeParityRows are the range-batched entry points, whose bodies
// receive each innermost run with the rank of its first iteration.
func rangeParityRows() []parityRow {
	ranges := func(visit func(int64, []int64)) func(int, int64, []int64, int64, int64) {
		return func(_ int, pc int64, prefix []int64, lo, hi int64) {
			for i := lo; i < hi; i++ {
				visit(pc+i-lo, append(append([]int64(nil), prefix...), i))
			}
		}
	}
	return []parityRow{
		{"ranges", true, func(res *core.Result, p map[string]int64, th int, s Schedule, visit func(int64, []int64)) error {
			return CollapsedForRanges(res, p, th, s, ranges(visit))
		}},
		{"ranges+stats", true, func(res *core.Result, p map[string]int64, th int, s Schedule, visit func(int64, []int64)) error {
			st, err := CollapsedForRangesStats(res, p, th, s, nil, ranges(visit))
			if err != nil {
				return err
			}
			b, err := res.Unranker.Bind(p)
			if err != nil {
				return err
			}
			if st.Iterations != b.Total() {
				return fmt.Errorf("range stats cover %d iterations, want %d", st.Iterations, b.Total())
			}
			if st.Batches == 0 || st.Batches < st.Carries {
				return fmt.Errorf("implausible range stats %+v", st)
			}
			return nil
		}},
	}
}

// tupleParityRows are the entry points whose bodies receive one tuple
// (or a SIMD window of tuples) at a time.
func tupleParityRows() []parityRow {
	tuple := func(visit func(int64, []int64)) func(int, []int64) {
		return func(_ int, idx []int64) { visit(0, idx) }
	}
	rows := []parityRow{
		{"tuple", true, func(res *core.Result, p map[string]int64, th int, s Schedule, visit func(int64, []int64)) error {
			return CollapsedFor(res, p, th, s, tuple(visit))
		}},
		{"tuple+ctx", true, func(res *core.Result, p map[string]int64, th int, s Schedule, visit func(int64, []int64)) error {
			return CollapsedForCtx(context.Background(), res, p, th, s, tuple(visit))
		}},
		{"chunk-telemetry/nil", true, func(res *core.Result, p map[string]int64, th int, s Schedule, visit func(int64, []int64)) error {
			_, err := CollapsedForChunkTelemetryCtx(nil, res, p, th, s, nil, tuple(visit))
			return err
		}},
		{"chunk-telemetry/live", true, func(res *core.Result, p map[string]int64, th int, s Schedule, visit func(int64, []int64)) error {
			_, err := CollapsedForChunkTelemetryCtx(context.Background(), res, p, th, s, telemetry.New(), tuple(visit))
			return err
		}},
	}
	for _, v := range []int{1, 8} {
		v := v
		rows = append(rows, parityRow{fmt.Sprintf("simd/v=%d", v), false,
			func(res *core.Result, p map[string]int64, th int, _ Schedule, visit func(int64, []int64)) error {
				return CollapsedForSIMD(res, p, th, v, func(_ int, batch [][]int64) {
					for _, idx := range batch {
						visit(0, idx)
					}
				})
			}})
	}
	for _, w := range []int{1, 7, 32} {
		w := w
		rows = append(rows, parityRow{fmt.Sprintf("warp/W=%d", w), false,
			func(res *core.Result, p map[string]int64, _ int, _ Schedule, visit func(int64, []int64)) error {
				return CollapsedForWarp(res, p, w, func(_ int, pc int64, idx []int64) { visit(pc, idx) })
			}})
	}
	rows = append(rows, parityRow{"shard", false,
		func(res *core.Result, p map[string]int64, th int, _ Schedule, visit func(int64, []int64)) error {
			return runShards(res, p, th, visit)
		}})
	return rows
}

// runShards covers [1, Total] with `shards` contiguous ShardForCtx
// attempts of internal chunk 5.
func runShards(res *core.Result, params map[string]int64, shards int,
	visit func(int64, []int64)) error {
	b, err := res.Unranker.Bind(params)
	if err != nil {
		return err
	}
	total := b.Total()
	if total == 0 {
		return nil
	}
	var los []int64
	for s := 0; s < shards; s++ {
		if lo := 1 + total*int64(s)/int64(shards); len(los) == 0 || lo > los[len(los)-1] {
			los = append(los, lo)
		}
	}
	for i, lo := range los {
		hi := total
		if i+1 < len(los) {
			hi = los[i+1] - 1
		}
		done, err := ShardForCtx(context.Background(), i, b, lo, hi, 5, visit)
		if err != nil {
			return err
		}
		if done != hi-lo+1 {
			return fmt.Errorf("shard [%d,%d] reported %d done", lo, hi, done)
		}
	}
	return nil
}

// TestCollapsedForExactlyOnce and TestCollapsedForRangesDifferential
// are the parity test of the collapsed executor, split by body shape:
// together they run every kept entry point over the same nests,
// schedules and team sizes and check that each visits exactly the
// iteration multiset of sequential enumeration — and, where the entry
// point reports ranks, that every tuple arrives with its own rank.
func TestCollapsedForExactlyOnce(t *testing.T) {
	checkParity(t, tupleParityRows())
}

func TestCollapsedForRangesDifferential(t *testing.T) {
	checkParity(t, rangeParityRows())
}

func checkParity(t *testing.T, rows []parityRow) {
	t.Helper()
	cases := []struct {
		name   string
		n      *nest.Nest
		params map[string]int64
	}{
		{"tri", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N")), map[string]int64{"N": 40}},
		{"tetra", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N-1"), nest.L("j", "0", "i+1"), nest.L("k", "j", "i+1")),
			map[string]int64{"N": 9}},
		{"depth1", nest.MustNew([]string{"N"},
			nest.L("i", "3", "N")), map[string]int64{"N": 41}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Collapse(tc.n, tc.n.Depth(), unrank.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := res.Unranker.Bind(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			rank := map[string]int64{}
			truth := map[string]int{}
			pc := int64(1)
			b.Instance().Enumerate(func(idx []int64) bool {
				k := fmt.Sprint(idx)
				rank[k] = pc
				truth[k]++
				pc++
				return true
			})
			for _, row := range rows {
				for si, sched := range paritySchedules {
					if !row.scheduled && si > 0 {
						break
					}
					for _, threads := range []int{1, 3, 8} {
						label := fmt.Sprintf("%s/threads=%d", row.name, threads)
						if row.scheduled {
							label += fmt.Sprintf("/%v,%d", sched.Kind, sched.Chunk)
						}
						got := map[string]int{}
						var mu sync.Mutex
						err := row.run(res, tc.params, threads, sched, func(pc int64, idx []int64) {
							k := fmt.Sprint(idx)
							mu.Lock()
							defer mu.Unlock()
							got[k]++
							if pc != 0 && pc != rank[k] {
								t.Errorf("%s: tuple %s visited as pc %d, want %d", label, k, pc, rank[k])
							}
						})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						diffMultiset(t, label, truth, got)
					}
				}
			}
		})
	}
}

func diffMultiset(t *testing.T, label string, want, got map[string]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d distinct visits, want %d", label, len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Fatalf("%s: visit %s seen %d times, want %d", label, k, got[k], want[k])
		}
	}
}

// TestSeededChunkStarts forces seeded chunk starts on and off through
// the schedule alone and checks the count of seeded starts as well as
// the visited multiset. The collapse runs in verify mode, which checks
// every Bound.Unrank, so Stats.Verifies counts the starts that were
// recovered rather than seeded; so must the recovery histogram.
func TestSeededChunkStarts(t *testing.T) {
	// One thread with static,1 or dynamic,1 starts every chunk but the
	// first one rank after its last tuple: seeding is forced on.
	on := []Schedule{{Kind: StaticChunk, Chunk: 1}, {Kind: Dynamic, Chunk: 1}}
	// The off nest's innermost runs have 3 ranks, so two threads with
	// static chunks of 3·(seedCarries+2) start each chunk more than
	// seedCarries carries past the worker's last tuple: seeding is
	// forced off.
	const run = 3
	off := []Schedule{{Kind: StaticChunk, Chunk: run * (seedCarries + 2)}}
	cases := []struct {
		name    string
		n       *nest.Nest
		params  map[string]int64
		threads int
		scheds  []Schedule
		seeding bool // every chunk but the first seeded, else none
	}{
		{"on/tri", nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N")),
			map[string]int64{"N": 40}, 1, on, true},
		{"on/tetra", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N-1"), nest.L("j", "0", "i+1"), nest.L("k", "j", "i+1")),
			map[string]int64{"N": 9}, 1, on, true},
		{"on/depth1", nest.MustNew([]string{"N"}, nest.L("i", "3", "N")),
			map[string]int64{"N": 41}, 1, on, true},
		{"off/short-runs", nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", fmt.Sprint(run))),
			map[string]int64{"N": 4 * (seedCarries + 2)}, 2, off, false},
	}
	for _, tc := range cases {
		res, err := core.Collapse(tc.n, tc.n.Depth(), unrank.Options{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		truth := map[string]int{}
		tc.n.MustBind(tc.params).Enumerate(func(idx []int64) bool {
			truth[fmt.Sprint(idx)]++
			return true
		})
		for _, sched := range tc.scheds {
			for _, ranged := range []bool{false, true} {
				label := fmt.Sprintf("%s/%v,%d/ranges=%v", tc.name, sched.Kind, sched.Chunk, ranged)
				got := map[string]int{}
				var mu sync.Mutex
				visit := func(idx []int64) {
					mu.Lock()
					got[fmt.Sprint(idx)]++
					mu.Unlock()
				}
				e, err := newEngine(res, tc.params, tc.threads, sched)
				if err != nil {
					t.Fatal(err)
				}
				step := tupleStep(func(_ int, idx []int64) { visit(idx) })
				if ranged {
					step = rangeStep(nil, func(_ int, _ int64, prefix []int64, lo, hi int64) {
						for i := lo; i < hi; i++ {
							visit(append(append([]int64(nil), prefix...), i))
						}
					})
				}
				tel := telemetry.New()
				cs, err := e.run(nil, tel, true, step)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				diffMultiset(t, label, truth, got)
				var chunks, seeded int64
				for _, ts := range cs.PerThread {
					chunks += ts.Chunks
					seeded += ts.Seeded
				}
				want := int64(0)
				if tc.seeding {
					want = chunks - 1
				}
				if seeded != want {
					t.Errorf("%s: %d of %d chunk starts seeded, want %d", label, seeded, chunks, want)
				}
				if cs.Stats.Verifies != chunks-seeded {
					t.Errorf("%s: %d recoveries verified, want %d (chunks %d - seeded %d)",
						label, cs.Stats.Verifies, chunks-seeded, chunks, seeded)
				}
				// The autotuner's recovery input observes recovered starts only.
				if n := tel.Snapshot().Histograms[RecoverySecondsMetric].Count; n != chunks-seeded {
					t.Errorf("%s: %s observed %d starts, want the %d recovered ones",
						label, RecoverySecondsMetric, n, chunks-seeded)
				}
			}
		}
	}
}

// TestShardSeedsInternalChunks runs whole shards of several internal
// chunks each: only an attempt's first chunk recovers its start, every
// later one is seeded, and no seed crosses from one attempt to the
// next on the reused bound.
func TestShardSeedsInternalChunks(t *testing.T) {
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
	params := map[string]int64{"N": 40}
	res, err := core.Collapse(n, 2, unrank.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]int{}
	n.MustBind(params).Enumerate(func(idx []int64) bool {
		truth[fmt.Sprint(idx)]++
		return true
	})
	b, err := res.Unranker.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	const shards, chunk = 4, 7
	total := b.Total()
	for s := int64(0); s < shards; s++ {
		lo, hi := 1+total*s/shards, total*(s+1)/shards
		before := b.Stats().Verifies
		done, err := ShardForCtx(context.Background(), int(s), b, lo, hi, chunk, func(_ int64, idx []int64) {
			got[fmt.Sprint(idx)]++
		})
		if err != nil || done != hi-lo+1 {
			t.Fatalf("shard [%d,%d]: done %d, err %v", lo, hi, done, err)
		}
		if hi-lo+1 <= 2*chunk {
			t.Fatalf("shard [%d,%d] spans too few internal chunks", lo, hi)
		}
		if v := b.Stats().Verifies - before; v != 1 {
			t.Errorf("shard [%d,%d]: %d chunk starts recovered, want 1", lo, hi, v)
		}
	}
	diffMultiset(t, "shards", truth, got)
}
