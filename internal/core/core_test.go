package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nest"
	"repro/internal/nest/nesttest"
	"repro/internal/poly"
	"repro/internal/unrank"
)

// correlation3 is the full 3-deep correlation nest of Fig. 1, of which
// the two outermost loops are collapsed.
func correlation3() *nest.Nest {
	return nest.MustNew([]string{"N"},
		nest.L("i", "0", "N-1"),
		nest.L("j", "i+1", "N"),
		nest.L("k", "0", "N"),
	)
}

func TestCollapseCorrelationTwoOfThree(t *testing.T) {
	r, err := Collapse(correlation3(), 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.C != 2 || r.SubNest.Depth() != 2 {
		t.Fatalf("sub-nest depth %d", r.SubNest.Depth())
	}
	if want := poly.MustParse("(2*i*N + 2*j - i^2 - 3*i)/2"); !r.Ranking().Equal(want) {
		t.Errorf("Ranking = %s", r.Ranking())
	}
	if want := poly.MustParse("(N-1)*N/2"); !r.Total().Equal(want) {
		t.Errorf("Total = %s", r.Total())
	}
	if err := r.CheckTotalMatchesRanking(map[string]int64{"N": 9}); err != nil {
		t.Error(err)
	}
}

func TestCollapseArgErrors(t *testing.T) {
	n := correlation3()
	if _, err := Collapse(n, 0, unrank.Options{}); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := Collapse(n, 4, unrank.Options{}); err == nil {
		t.Error("c=4 accepted for depth-3 nest")
	}
	bad := &nest.Nest{}
	if _, err := Collapse(bad, 1, unrank.Options{}); err == nil {
		t.Error("invalid nest accepted")
	}
}

func TestForRangeCoversAllIterationsOnce(t *testing.T) {
	r := MustCollapse(correlation3(), 2, unrank.Options{})
	b := r.Unranker.MustBind(map[string]int64{"N": 12})
	total := b.Total()
	seen := map[[2]int64]int64{}
	// Split into uneven ranges like a static schedule would.
	bounds := []int64{1, 7, 8, 23, total}
	lo := bounds[0]
	for _, hi := range bounds[1:] {
		bb := r.Unranker.MustBind(map[string]int64{"N": 12})
		var lastPC int64
		err := ForRange(bb, lo, hi, func(pc int64, idx []int64) {
			seen[[2]int64{idx[0], idx[1]}]++
			if pc <= lastPC && lastPC != 0 {
				t.Fatalf("pc not increasing: %d after %d", pc, lastPC)
			}
			lastPC = pc
		})
		if err != nil {
			t.Fatal(err)
		}
		lo = hi + 1
	}
	inst := b.Instance()
	var n int64
	inst.Enumerate(func(idx []int64) bool {
		n++
		if seen[[2]int64{idx[0], idx[1]}] != 1 {
			t.Fatalf("iteration %v executed %d times", idx, seen[[2]int64{idx[0], idx[1]}])
		}
		return true
	})
	if int64(len(seen)) != n {
		t.Fatalf("executed %d distinct iterations, want %d", len(seen), n)
	}
}

func TestForRangeEveryMatchesForRange(t *testing.T) {
	r := MustCollapse(correlation3(), 2, unrank.Options{})
	params := map[string]int64{"N": 10}
	b1 := r.Unranker.MustBind(params)
	b2 := r.Unranker.MustBind(params)
	var seq1, seq2 [][]int64
	if err := ForRange(b1, 3, 30, func(pc int64, idx []int64) {
		seq1 = append(seq1, append([]int64(nil), idx...))
	}); err != nil {
		t.Fatal(err)
	}
	if err := ForRangeEvery(b2, 3, 30, func(pc int64, idx []int64) {
		seq2 = append(seq2, append([]int64(nil), idx...))
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq1, seq2) {
		t.Errorf("ForRange and ForRangeEvery disagree:\n%v\n%v", seq1, seq2)
	}
}

func TestForRangeErrors(t *testing.T) {
	r := MustCollapse(correlation3(), 2, unrank.Options{})
	b := r.Unranker.MustBind(map[string]int64{"N": 5})
	if err := ForRange(b, 1, b.Total()+5, func(int64, []int64) {}); err == nil {
		t.Error("range beyond total accepted")
	}
	if err := ForRange(b, 5, 2, func(int64, []int64) {}); err != nil {
		t.Errorf("empty range errored: %v", err)
	}
	if err := ForRangeEvery(b, 0, 2, func(int64, []int64) {}); err == nil {
		t.Error("pc=0 accepted by ForRangeEvery")
	}
}

func TestCollapseFullDepth(t *testing.T) {
	// Collapse all three loops of the tetrahedral nest and check full
	// coverage via ForRange over chunks (the Fig. 10 "all loops
	// collapsed" configuration).
	tetra := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N-1"),
		nest.L("j", "0", "i+1"),
		nest.L("k", "j", "i+1"),
	)
	r := MustCollapse(tetra, 3, unrank.Options{})
	b := r.Unranker.MustBind(map[string]int64{"N": 11})
	total := b.Total()
	if want := (int64(11*11*11) - 11) / 6; total != want {
		t.Fatalf("Total = %d, want %d", total, want)
	}
	var count int64
	chunk := int64(17)
	for lo := int64(1); lo <= total; lo += chunk {
		hi := lo + chunk - 1
		if hi > total {
			hi = total
		}
		bb := r.Unranker.MustBind(map[string]int64{"N": 11})
		if err := ForRange(bb, lo, hi, func(pc int64, idx []int64) { count++ }); err != nil {
			t.Fatal(err)
		}
	}
	if count != total {
		t.Errorf("executed %d iterations, want %d", count, total)
	}
}

func TestCollapseRandomNestsProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n, params := nesttest.RandRegularNest(rnd)
		c := 1 + rnd.Intn(n.Depth())
		r, err := Collapse(n, c, unrank.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := r.CheckTotalMatchesRanking(params); err != nil {
			t.Fatalf("trial %d nest\n%s: %v", trial, n, err)
		}
	}
}

func TestTripCounts(t *testing.T) {
	r := MustCollapse(correlation3(), 2, unrank.Options{})
	T := r.TripCounts()
	if len(T) != 4 {
		t.Fatalf("len(TripCounts) = %d", len(T))
	}
	// T[2] is the trip count of the k loop: N.
	if !T[2].Equal(poly.Var("N")) {
		t.Errorf("T[2] = %s", T[2])
	}
	// T[0] is the total work: N * (N-1)N/2.
	want := poly.MustParse("N*(N-1)*N/2")
	if !T[0].Equal(want) {
		t.Errorf("T[0] = %s", T[0])
	}
}
