package autotune

import (
	"testing"
	"time"
)

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
