package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestPlanCacheRoundTrip(t *testing.T) {
	c := NewCollapseCache(32)
	if _, ok := c.GetPlan("k1"); ok {
		t.Fatal("empty cache returned a plan")
	}
	c.PutPlan("k1", 41)
	c.PutPlan("k1", 42) // replace
	if v, ok := c.GetPlan("k1"); !ok || v.(int) != 42 {
		t.Fatalf("GetPlan = %v, %v", v, ok)
	}
	if c.Plans() != 1 {
		t.Fatalf("Plans() = %d", c.Plans())
	}
	c.DeletePlan("k1")
	c.DeletePlan("k1") // idempotent
	if _, ok := c.GetPlan("k1"); ok {
		t.Fatal("deleted plan still resident")
	}
}

// TestPlanCacheBoundedIndependentlyOfArtifacts pins the plan table at
// exactly four times the artifact capacity, least recently used first out.
func TestPlanCacheBoundedIndependentlyOfArtifacts(t *testing.T) {
	c := NewCollapseCache(3) // 3 artifacts, 12 plans
	for i := 0; i < 4096; i++ {
		c.PutPlan(fmt.Sprintf("plan-%d", i), i)
	}
	if n := c.Plans(); n != 12 {
		t.Fatalf("Plans() = %d, want 12", n)
	}
	for i := 4096 - 12; i < 4096; i++ {
		if v, ok := c.GetPlan(fmt.Sprintf("plan-%d", i)); !ok || v.(int) != i {
			t.Fatalf("recent plan-%d = %v, %v", i, v, ok)
		}
	}
	if _, ok := c.GetPlan(fmt.Sprintf("plan-%d", 4096-13)); ok {
		t.Fatal("least recently used plan still resident")
	}
	if c.Stats().Entries != 0 {
		t.Fatal("plan churn touched the artifact table")
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewCollapseCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%37)
				c.PutPlan(key, g)
				c.GetPlan(key)
				if i%11 == 0 {
					c.DeletePlan(key)
				}
			}
		}(g)
	}
	wg.Wait()
}
