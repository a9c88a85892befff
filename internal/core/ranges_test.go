package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// rangeNests covers every bound-shape class the specializer handles:
// rectangular (constant bounds), triangular both ways, shifted
// triangular, a depth-1 nest (a single flat run), and a skewed nest
// with a non-unit coefficient bound.
func rangeNests(t *testing.T) []struct {
	name   string
	n      *nest.Nest
	params map[string]int64
} {
	t.Helper()
	return []struct {
		name   string
		n      *nest.Nest
		params map[string]int64
	}{
		{"rect", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N"), nest.L("j", "0", "N")), map[string]int64{"N": 9}},
		{"tri-lower", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N")), map[string]int64{"N": 11}},
		{"tri-upper", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N"), nest.L("j", "0", "i+1")), map[string]int64{"N": 10}},
		{"shifted", nest.MustNew([]string{"N"},
			nest.L("i", "1", "N"), nest.L("j", "i+2", "N+2")), map[string]int64{"N": 8}},
		{"tetra", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N-1"), nest.L("j", "0", "i+1"), nest.L("k", "j", "i+1")),
			map[string]int64{"N": 7}},
		{"depth1", nest.MustNew([]string{"N"},
			nest.L("i", "2", "N")), map[string]int64{"N": 23}},
		{"skewed", nest.MustNew([]string{"N"},
			nest.L("i", "0", "N"), nest.L("j", "2*i", "2*i+3")), map[string]int64{"N": 6}},
	}
}

type visit struct {
	pc  int64
	idx string
}

// TestForRangesMatchesForRange walks every nest over every pc range
// split, comparing the (pc, idx) sequences of the range-batched driver,
// the per-iteration driver and direct sequential enumeration — chunk
// sizes 1..run-length+1 force boundaries that split innermost runs.
func TestForRangesMatchesForRange(t *testing.T) {
	for _, tc := range rangeNests(t) {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Collapse(tc.n, tc.n.Depth(), unrank.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := res.Unranker.Bind(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			total := b.Total()
			if total < 3 {
				t.Fatalf("degenerate total %d", total)
			}
			// Sequential truth: rank pc visits the pc-th tuple.
			var truth []visit
			pc := int64(1)
			b.Instance().Enumerate(func(idx []int64) bool {
				truth = append(truth, visit{pc, fmt.Sprint(idx)})
				pc++
				return true
			})
			if int64(len(truth)) != total {
				t.Fatalf("enumerated %d tuples, total says %d", len(truth), total)
			}
			for _, chunk := range []int64{1, 2, 3, 5, total, total + 7} {
				gotRange := collect(t, b, truth, chunk, false)
				gotRanges := collect(t, b, truth, chunk, true)
				assertVisits(t, fmt.Sprintf("chunk %d per-iteration", chunk), truth, gotRange)
				assertVisits(t, fmt.Sprintf("chunk %d range-batched", chunk), truth, gotRanges)
			}
		})
	}
}

// collect runs the collapsed space serially in chunks of the given size
// through ForRange or ForRanges and returns the visit sequence. After
// each chunk the driver must have left b.Scratch() at the tuple of the
// chunk's last rank, which the collapsed engine skips forward from.
func collect(t *testing.T, b *unrank.Bound, truth []visit, chunk int64, ranges bool) []visit {
	t.Helper()
	total := int64(len(truth))
	var out []visit
	for lo := int64(1); lo <= total; lo += chunk {
		hi := lo + chunk - 1
		if hi > total {
			hi = total
		}
		var err error
		if ranges {
			var st RangeStats
			err = ForRanges(b, lo, hi, &st, func(pc int64, prefix []int64, rlo, rhi int64) {
				for i := rlo; i < rhi; i++ {
					tuple := append(append([]int64(nil), prefix...), i)
					out = append(out, visit{pc + (i - rlo), fmt.Sprint(tuple)})
				}
			})
			if err == nil {
				if st.Iterations != hi-lo+1 {
					t.Fatalf("chunk [%d,%d]: stats cover %d iterations, want %d",
						lo, hi, st.Iterations, hi-lo+1)
				}
				if st.Batches != st.Carries+1 {
					t.Fatalf("chunk [%d,%d]: %d batches but %d carries (want carries+1)",
						lo, hi, st.Batches, st.Carries)
				}
			}
		} else {
			err = ForRange(b, lo, hi, func(pc int64, idx []int64) {
				out = append(out, visit{pc, fmt.Sprint(idx)})
			})
		}
		if err != nil {
			t.Fatalf("chunk [%d,%d]: %v", lo, hi, err)
		}
		if got, want := fmt.Sprint(b.Scratch()), truth[hi-1].idx; got != want {
			t.Fatalf("chunk [%d,%d] (ranges=%v) left the scratch at %s, want %s", lo, hi, ranges, got, want)
		}
	}
	return out
}

func assertVisits(t *testing.T, label string, want, got []visit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: visited %d iterations, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: visit %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestForRangesExhaustion asks for more ranks than the space holds: the
// engine must fail with ErrRecoveryDiverged at the boundary instead of
// repeating or inventing tuples.
func TestForRangesExhaustion(t *testing.T) {
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", "i+1"))
	res, err := Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Unranker.MustBind(map[string]int64{"N": 5})
	total := b.Total()
	err = ForRanges(b, total, total+3, nil, func(int64, []int64, int64, int64) {})
	if !errors.Is(err, faults.ErrRecoveryDiverged) {
		t.Fatalf("got %v, want ErrRecoveryDiverged", err)
	}
	if err := ForRange(b, total+1, total, func(int64, []int64) {}); err != nil {
		t.Fatalf("empty range must be a no-op, got %v", err)
	}
}

// TestForRangeDriversZeroAlloc is the steady-state allocation guard for
// the §V drivers: after the Bound's scratch exists, neither the
// per-iteration nor the range-batched driver may allocate.
func TestForRangeDriversZeroAlloc(t *testing.T) {
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
	res, err := Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Unranker.MustBind(map[string]int64{"N": 64})
	total := b.Total()
	sink := int64(0)
	perIter := func() {
		if err := ForRange(b, 1, total, func(pc int64, idx []int64) { sink += idx[0] }); err != nil {
			t.Fatal(err)
		}
	}
	batched := func() {
		err := ForRanges(b, 1, total, nil, func(pc int64, prefix []int64, lo, hi int64) {
			sink += prefix[0] + hi - lo
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	perIter() // warm the scratch buffer
	if allocs := testing.AllocsPerRun(10, perIter); allocs != 0 {
		t.Errorf("ForRange allocates %v per run in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, batched); allocs != 0 {
		t.Errorf("ForRanges allocates %v per run in steady state, want 0", allocs)
	}

	// The breakpoint-table tier must hold the same guarantee: tables are
	// built once at Bind, so steady-state table recovery (and the seeded
	// driver entry) may not allocate either.
	rest, err := Collapse(n, 2, unrank.Options{Mode: unrank.ModeTable})
	if err != nil {
		t.Fatal(err)
	}
	bt := rest.Unranker.MustBind(map[string]int64{"N": 64})
	ttotal := bt.Total()
	tblIter := func() {
		if err := ForRange(bt, 1, ttotal, func(pc int64, idx []int64) { sink += idx[0] }); err != nil {
			t.Fatal(err)
		}
	}
	start := make([]int64, bt.Depth())
	if err := bt.Unrank(1, start); err != nil {
		t.Fatal(err)
	}
	tblFrom := func() {
		if err := ForRangeFrom(bt, 1, ttotal, start, func(pc int64, idx []int64) { sink += idx[0] }); err != nil {
			t.Fatal(err)
		}
	}
	tblIter() // warm table scratch (per-prefix base cache)
	if allocs := testing.AllocsPerRun(10, tblIter); allocs != 0 {
		t.Errorf("ForRange (table tier) allocates %v per run in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, tblFrom); allocs != 0 {
		t.Errorf("ForRangeFrom (table tier) allocates %v per run in steady state, want 0", allocs)
	}
	_ = sink
}
