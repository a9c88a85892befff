package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/nest"
	"repro/internal/unrank"
)

// CollapseCache memoizes the expensive symbolic phase of Collapse — the
// ranking construction, radical solving, root selection and evaluator
// compilation — keyed by NestSignature, i.e. by the structure of the
// collapsed band modulo variable spelling. A hit adapts the cached
// Unranker to the caller's names with a shallow rename (compiled
// evaluators are positional and shared), so collapsing the same nest
// shape repeatedly — sweeps over parameter values, per-rank tools,
// long-running services — pays the compile cost once.
//
// The cache is safe for concurrent use and bounded: one mutex guards two
// exact LRU tables, each evicting its least recently used entry when
// over capacity. A hit holds the lock for a few map and list operations,
// far below the cost of the compile it saves.
type CollapseCache struct {
	mu  sync.Mutex
	art LRU[*unrank.Unranker]

	// Planner side-table: autotuning decisions cached alongside the
	// compiled artifacts they schedule. Keys extend the NestSignature
	// with the params bucket and core count (so a decision invalidates
	// implicitly when either changes); values are opaque to core — the
	// planner (internal/autotune) owns the concrete type. The table has
	// its own LRU so plan churn cannot evict compiled artifacts, and vice
	// versa. Decisions are tiny (a schedule triple plus a few floats), so
	// it holds four times the artifact capacity.
	plans LRU[any]

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// LRU is a string-keyed table bounded to capacity entries, least
// recently used first out. It is not safe for concurrent use: the owner
// holds its own lock around every call (CollapseCache.mu here, the serve
// daemon's request table there).
type LRU[V any] struct {
	capacity int
	order    list.List // front = most recent; values are *lruEntry[V]
	m        map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	v   V
}

// NewLRU returns an empty table holding at most capacity entries.
func NewLRU[V any](capacity int) LRU[V] {
	return LRU[V]{capacity: capacity, m: make(map[string]*list.Element)}
}

// Get returns the value under key, promoting it to most recently used.
func (l *LRU[V]) Get(key string) (v V, ok bool) {
	el, ok := l.m[key]
	if !ok {
		return v, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).v, true
}

// Put stores (or replaces) v under key as most recently used and evicts
// down to capacity, reporting how many entries were dropped.
func (l *LRU[V]) Put(key string, v V) (evicted int) {
	if el, ok := l.m[key]; ok {
		el.Value.(*lruEntry[V]).v = v
		l.order.MoveToFront(el)
		return 0
	}
	l.m[key] = l.order.PushFront(&lruEntry[V]{key: key, v: v})
	for l.order.Len() > l.capacity {
		back := l.order.Back()
		l.order.Remove(back)
		delete(l.m, back.Value.(*lruEntry[V]).key)
		evicted++
	}
	return evicted
}

// Remove drops key (a no-op when absent).
func (l *LRU[V]) Remove(key string) {
	if el, ok := l.m[key]; ok {
		l.order.Remove(el)
		delete(l.m, key)
	}
}

// Len reports how many entries are resident.
func (l *LRU[V]) Len() int { return l.order.Len() }

// NewCollapseCache returns a cache holding at most capacity compiled
// collapse artifacts and 4×capacity planner decisions. capacity <= 0
// selects a default of 64.
func NewCollapseCache(capacity int) *CollapseCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &CollapseCache{art: NewLRU[*unrank.Unranker](capacity), plans: NewLRU[any](4 * capacity)}
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      int64 // lookups served by a cached artifact
	Misses    int64 // lookups that fell through to a full compile
	Evictions int64 // entries dropped by the LRU bound
	Entries   int   // artifacts currently resident
}

// String renders the counters in a compact fixed-order form.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits %d, misses %d, evictions %d, entries %d",
		s.Hits, s.Misses, s.Evictions, s.Entries)
}

// Stats returns a snapshot of the cache counters.
func (c *CollapseCache) Stats() CacheStats {
	c.mu.Lock()
	entries := c.art.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

// get returns the cached Unranker for sig, promoting the entry to most
// recently used.
func (c *CollapseCache) get(sig string) (*unrank.Unranker, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.art.Get(sig)
}

// put stores u under sig, evicting the least recently used artifact when
// over capacity. evicted reports how many entries were dropped.
func (c *CollapseCache) put(sig string, u *unrank.Unranker) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.art.Get(sig); ok {
		// Concurrent miss on the same signature: keep the resident entry
		// (callers already hold independent Unrankers; the artifacts are
		// interchangeable).
		return 0
	}
	evicted = c.art.Put(sig, u)
	c.evictions.Add(int64(evicted))
	return evicted
}

// GetPlan returns the cached planner decision stored under key (a
// NestSignature extended with the params bucket and core count),
// promoting it to most recently used.
func (c *CollapseCache) GetPlan(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.Get(key)
}

// PutPlan stores (or replaces) the planner decision under key, evicting
// the least recently used plan when over capacity.
func (c *CollapseCache) PutPlan(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans.Put(key, v)
}

// DeletePlan drops the decision under key (a no-op when absent) — the
// online-refinement path invalidates a plan whose prediction deviated
// from the observed makespan.
func (c *CollapseCache) DeletePlan(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans.Remove(key)
}

// Plans reports how many planner decisions are resident.
func (c *CollapseCache) Plans() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.Len()
}

// CollapseCached is Collapse routed through cache: a structural hit skips
// the whole symbolic pipeline and adapts the cached artifact to the
// caller's variable names; a miss compiles normally and populates the
// cache. A nil cache, or a request NestSignature declines to canonicalize
// (custom SampleParams), degrades to a plain Collapse. Telemetry, when
// configured in opts, receives cache.hits / cache.misses /
// cache.evictions counters.
func CollapseCached(cache *CollapseCache, n *nest.Nest, c int, opts unrank.Options) (res *Result, err error) {
	if cache == nil {
		return Collapse(n, c, opts)
	}
	defer guard(&res, &err)
	sig, ok := NestSignature(n, c, opts)
	if !ok {
		return Collapse(n, c, opts)
	}
	res, _, err = CollapseSigned(cache, sig, n, c, opts)
	return res, err
}

// CollapseSigned is CollapseCached for a caller that already holds sig,
// the NestSignature of (n, c, opts) — the serve daemon needs it first
// for its circuit breaker — and wants to know whether the cache
// answered: hit reports a structural hit.
func CollapseSigned(cache *CollapseCache, sig string, n *nest.Nest, c int, opts unrank.Options) (res *Result, hit bool, err error) {
	defer guard(&res, &err)
	tel := opts.Telemetry
	if u, ok := cache.get(sig); ok {
		cache.hits.Add(1)
		tel.Counter("cache.hits").Add(1)
		sp := tel.StartSpan("compile", "core.CollapseCached.hit", 0)
		sub := &nest.Nest{
			Params: append([]string(nil), n.Params...),
			Loops:  append([]nest.Loop(nil), n.Loops[:c]...),
		}
		ru := u.Renamed(sub)
		sp.End()
		return &Result{
			Nest:     n,
			C:        c,
			SubNest:  sub,
			Ranking:  ru.Ranking(),
			Total:    ru.Count(),
			Unranker: ru,
		}, true, nil
	}
	cache.misses.Add(1)
	tel.Counter("cache.misses").Add(1)
	res, err = Collapse(n, c, opts)
	if err == nil {
		if ev := cache.put(sig, res.Unranker); ev > 0 {
			tel.Counter("cache.evictions").Add(int64(ev))
		}
	}
	return res, false, err
}
