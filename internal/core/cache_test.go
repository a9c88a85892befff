package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/nest"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// renamedCorrelation is correlation3 with every name re-spelled — the
// same structure, so it must hit a cache populated by correlation3.
func renamedCorrelation() *nest.Nest {
	return nest.MustNew([]string{"M"},
		nest.L("a", "0", "M-1"),
		nest.L("b", "a+1", "M"),
		nest.L("c", "0", "M"),
	)
}

func TestNestSignatureAlphaInvariance(t *testing.T) {
	s1, ok1 := NestSignature(correlation3(), 2, unrank.Options{})
	s2, ok2 := NestSignature(renamedCorrelation(), 2, unrank.Options{})
	if !ok1 || !ok2 {
		t.Fatalf("cacheable nests reported uncacheable: %v %v", ok1, ok2)
	}
	if s1 != s2 {
		t.Errorf("α-renamed nests sign differently:\n  %s\n  %s", s1, s2)
	}
	// Different band depth, options, or shape must sign differently.
	if s3, _ := NestSignature(correlation3(), 3, unrank.Options{}); s3 == s1 {
		t.Error("c=2 and c=3 share a signature")
	}
	if s4, _ := NestSignature(correlation3(), 2, unrank.Options{Verify: true}); s4 == s1 {
		t.Error("verify on/off share a signature")
	}
	if s5, _ := NestSignature(correlation3(), 2, unrank.Options{Mode: unrank.ModeBinarySearch}); s5 == s1 {
		t.Error("closed-form and binary-search share a signature")
	}
	tet := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N"), nest.L("j", "0", "i+1"), nest.L("k", "0", "N"))
	if s6, _ := NestSignature(tet, 2, unrank.Options{}); s6 == s1 {
		t.Error("different shapes share a signature")
	}
	// Explicit defaults and the zero value are the same problem.
	if s7, _ := NestSignature(correlation3(), 2, unrank.Options{TableMaxEntries: 4096}); s7 != s1 {
		t.Error("explicit defaults sign differently from the zero value")
	}
	// Custom selection samples are not canonicalizable.
	if _, ok := NestSignature(correlation3(), 2,
		unrank.Options{SampleParams: []map[string]int64{{"N": 5}}}); ok {
		t.Error("custom SampleParams reported cacheable")
	}
}

func TestCollapseCachedHitMatchesFreshCompile(t *testing.T) {
	cache := NewCollapseCache(8)
	tel := telemetry.New()
	opts := unrank.Options{Telemetry: tel}

	cold, err := CollapseCached(cache, correlation3(), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := CollapseCached(cache, renamedCorrelation(), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %v, want 1 hit / 1 miss", st)
	}
	if got := tel.Counter("cache.hits").Value(); got != 1 {
		t.Errorf("telemetry cache.hits = %d", got)
	}
	if got := tel.Counter("cache.misses").Value(); got != 1 {
		t.Errorf("telemetry cache.misses = %d", got)
	}

	// The adapted artifact must speak the caller's names...
	fresh := MustCollapse(renamedCorrelation(), 2, unrank.Options{})
	if warm.Ranking.String() != fresh.Ranking.String() {
		t.Errorf("renamed ranking = %s, want %s", warm.Ranking, fresh.Ranking)
	}
	if warm.Total.String() != fresh.Total.String() {
		t.Errorf("renamed total = %s, want %s", warm.Total, fresh.Total)
	}
	if warm.SubNest.Loops[0].Index != "a" || warm.SubNest.Loops[1].Index != "b" {
		t.Errorf("sub-nest indices = %v", warm.SubNest.Indices())
	}
	// ...and recover exactly the same tuples as a fresh compile.
	for _, res := range []*Result{warm, fresh} {
		b, err := res.Unranker.Bind(map[string]int64{"M": 17})
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int64, 2)
		want := [][2]int64{}
		inst := b.Instance()
		inst.Enumerate(func(i []int64) bool {
			want = append(want, [2]int64{i[0], i[1]})
			return true
		})
		if int64(len(want)) != b.Total() {
			t.Fatalf("enumerated %d, Total %d", len(want), b.Total())
		}
		for pc := int64(1); pc <= b.Total(); pc++ {
			if err := b.Unrank(pc, idx); err != nil {
				t.Fatal(err)
			}
			if idx[0] != want[pc-1][0] || idx[1] != want[pc-1][1] {
				t.Fatalf("pc=%d: got (%d,%d), want %v", pc, idx[0], idx[1], want[pc-1])
			}
		}
	}
	// The cold result still uses the original names.
	if cold.SubNest.Loops[0].Index != "i" {
		t.Errorf("cold sub-nest indices = %v", cold.SubNest.Indices())
	}
}

// TestCollapseCacheEviction pins the exact capacity: a cache of 3 holds
// exactly 3 artifacts and evicts the least recently used one.
func TestCollapseCacheEviction(t *testing.T) {
	cache := NewCollapseCache(3)
	shape := func(d int) *nest.Nest {
		return nest.MustNew([]string{"N"},
			nest.L("i", "0", "N"),
			nest.L("j", "0", fmt.Sprintf("i+%d", d)),
		)
	}
	sig := func(d int) string {
		s, ok := NestSignature(shape(d), 2, unrank.Options{})
		if !ok {
			t.Fatalf("shape %d uncacheable", d)
		}
		return s
	}
	collapse := func(d int) {
		t.Helper()
		if _, err := CollapseCached(cache, shape(d), 2, unrank.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for d := 1; d <= 3; d++ {
		collapse(d)
	}
	collapse(1) // hit: shape 2 becomes the least recently used
	collapse(4) // miss: evicts shape 2
	st := cache.Stats()
	if st.Entries != 3 || st.Evictions != 1 || st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("after 4 shapes and 1 hit in a capacity-3 cache: %v", st)
	}
	for d, want := range map[int]bool{1: true, 2: false, 3: true, 4: true} {
		cache.mu.Lock()
		_, got := cache.art.m[sig(d)]
		cache.mu.Unlock()
		if got != want {
			t.Errorf("shape %d resident = %v, want %v", d, got, want)
		}
	}
	for d := 5; d <= 40; d++ {
		collapse(d)
	}
	st = cache.Stats()
	if st.Entries != 3 || st.Evictions != 37 || st.Misses != 40 {
		t.Errorf("after 40 distinct shapes in a capacity-3 cache: %v", st)
	}
}

// TestCollapseCacheConcurrent hammers one cache from many goroutines
// with a mix of identical and distinct nests — the race-detector run of
// this package (make race) is the real assertion; the test additionally
// checks every returned artifact recovers a correct first tuple.
func TestCollapseCacheConcurrent(t *testing.T) {
	cache := NewCollapseCache(8)
	shapes := []*nest.Nest{
		correlation3(),
		renamedCorrelation(),
		nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", "i+1")),
		nest.MustNew([]string{"K"}, nest.L("x", "0", "K"), nest.L("y", "0", "x+1")),
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				n := shapes[(w+rep)%len(shapes)]
				res, err := CollapseCached(cache, n, 2, unrank.Options{})
				if err != nil {
					errs <- err
					return
				}
				params := map[string]int64{n.Params[0]: 9}
				b, err := res.Unranker.Bind(params)
				if err != nil {
					errs <- err
					return
				}
				idx := make([]int64, 2)
				first := make([]int64, 2)
				if !b.First(first) {
					errs <- fmt.Errorf("empty space for %v", params)
					return
				}
				if err := b.Unrank(1, idx); err != nil {
					errs <- err
					return
				}
				if idx[0] != first[0] || idx[1] != first[1] {
					errs <- fmt.Errorf("unrank(1) = %v, first = %v", idx, first)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Errorf("no cache hits across concurrent repeats: %v", st)
	}
}
