package autotune

import (
	"fmt"
	"sync"
	"testing"
)

func TestPlanTableReplace(t *testing.T) {
	tu := New(Options{})
	if _, ok := tu.getPlan("k1"); ok {
		t.Fatal("empty table returned a plan")
	}
	tu.putPlan("k1", &Plan{Key: "k1", UnitSec: 41})
	tu.putPlan("k1", &Plan{Key: "k1", UnitSec: 42}) // replace
	if p, ok := tu.getPlan("k1"); !ok || p.UnitSec != 42 {
		t.Fatalf("getPlan = %v, %v", p, ok)
	}
	if n := tu.plans.Len(); n != 1 {
		t.Fatalf("plans resident = %d, want 1", n)
	}
}

// TestPlanTableBounded pins the plan table at exactly planCapacity
// entries, least recently used first out.
func TestPlanTableBounded(t *testing.T) {
	tu := New(Options{})
	const puts = 4 * planCapacity
	for i := 0; i < puts; i++ {
		tu.putPlan(fmt.Sprintf("plan-%d", i), &Plan{UnitSec: float64(i)})
	}
	if n := tu.plans.Len(); n != planCapacity {
		t.Fatalf("plans resident = %d, want %d", n, planCapacity)
	}
	for i := puts - planCapacity; i < puts; i++ {
		if p, ok := tu.getPlan(fmt.Sprintf("plan-%d", i)); !ok || p.UnitSec != float64(i) {
			t.Fatalf("recent plan-%d = %v, %v", i, p, ok)
		}
	}
	if _, ok := tu.getPlan(fmt.Sprintf("plan-%d", puts-planCapacity-1)); ok {
		t.Fatal("least recently used plan still resident")
	}
}

func TestPlanTableConcurrent(t *testing.T) {
	tu := New(Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%37)
				tu.putPlan(key, &Plan{Key: key, UnitSec: float64(g)})
				tu.getPlan(key)
			}
		}(g)
	}
	wg.Wait()
}
