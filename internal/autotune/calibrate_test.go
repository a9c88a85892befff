package autotune

import (
	"reflect"
	"testing"
	"time"
)

// TestAlternate pins the one timing rule: the alternatives run in
// alternation, reversed every other round; every round yields one
// positive seconds-per-call sample per alternative; and a single
// alternative with no minimum time is called exactly once per round,
// which is what a planner probe costs.
func TestAlternate(t *testing.T) {
	// The log holds a for a call of alternative a and -1-a for its
	// reset, which must come right before the call.
	var log []int
	alt := func(a int) func() { return func() { log = append(log, a) } }
	secs := Alternate(4, 0, func(a int) { log = append(log, -1-a) }, alt(0), alt(1), alt(2))
	var want []int
	for _, a := range []int{0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0} {
		want = append(want, -1-a, a)
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("call order %v, want %v", log, want)
	}
	if len(secs) != 4 {
		t.Fatalf("%d rounds, want 4", len(secs))
	}

	// A minimum time makes every sample positive, however cheap the call.
	secs = Alternate(3, time.Microsecond, nil, func() {}, func() {})
	if len(secs) != 3 {
		t.Fatalf("%d rounds, want 3", len(secs))
	}
	for r, round := range secs {
		if len(round) != 2 || round[0] <= 0 || round[1] <= 0 {
			t.Errorf("round %d samples %v, want 2 positive entries", r, round)
		}
	}

	calls := 0
	Alternate(probeRounds, 0, nil, func() { calls++ })
	if calls != probeRounds {
		t.Errorf("one-alternative probe made %d calls, want %d", calls, probeRounds)
	}
}

// TestBestAndMedianRatio checks the two readings of Alternate's
// samples on a fixed table: the fastest sample per alternative, and the
// median of the within-round ratios (the mean of the middle two for an
// even round count), which a slow spell on one side of one round does
// not move.
func TestBestAndMedianRatio(t *testing.T) {
	secs := [][]float64{{2, 1}, {4, 2}, {9, 1}, {3, 3}}
	if b := Best(secs, 0); b != 2 {
		t.Errorf("Best(0) = %v, want 2", b)
	}
	if b := Best(secs, 1); b != 1 {
		t.Errorf("Best(1) = %v, want 1", b)
	}
	// Ratios 2, 2, 9, 1 sort to 1, 2, 2, 9.
	if m := MedianRatio(secs, 0, 1); m != 2 {
		t.Errorf("MedianRatio(0, 1) = %v, want 2", m)
	}
	if m := MedianRatio(secs[:3], 1, 0); m != 0.5 {
		t.Errorf("MedianRatio(1, 0) over 3 rounds = %v, want 0.5", m)
	}
}

// TestDequeueProbedOncePerProcess pins the dequeue probe's scope: two
// independent tuners plan with one shared value, which two separate
// timing runs would not reproduce.
func TestDequeueProbedOncePerProcess(t *testing.T) {
	res := triangular(t)
	p1, _, err := New(Options{}).Plan(res, map[string]int64{"N": 50})
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := New(Options{}).Plan(res, map[string]int64{"N": 500})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cal.Dequeue != p2.Cal.Dequeue || p1.Cal.Dequeue != DequeueSec() {
		t.Fatalf("dequeue costs %g, %g, %g: want one per-process value",
			p1.Cal.Dequeue, p2.Cal.Dequeue, DequeueSec())
	}
	if p1.Cal.Dequeue < 1e-9 {
		t.Fatalf("dequeue cost %g below its 1ns floor", p1.Cal.Dequeue)
	}
}

// TestColdPlanBudget bounds the first plan of the N=2000 triangle on a
// fresh tuner: calibration probes run a fixed number of passes, so a
// cold plan costs about half a millisecond. The 5ms bound (best of 3)
// leaves room for a loaded machine and fails if duration-based timing
// loops come back.
func TestColdPlanBudget(t *testing.T) {
	res := triangular(t)
	params := map[string]int64{"N": 2000}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		start := time.Now()
		if _, cached, err := New(Options{}).Plan(res, params); err != nil || cached {
			t.Fatalf("cold plan: cached=%v err=%v", cached, err)
		}
		best = min(best, time.Since(start))
	}
	if best >= 5*time.Millisecond {
		t.Fatalf("cold plan took %v (best of 3), want < 5ms", best)
	}
}

func BenchmarkPlanCold(b *testing.B) {
	res := triangular(b)
	params := map[string]int64{"N": 2000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := New(Options{}).Plan(res, params); err != nil {
			b.Fatal(err)
		}
	}
}
