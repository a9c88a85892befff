package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// CollapseCache memoizes the outcome of the expensive symbolic phase of
// Collapse — the ranking construction, radical solving, root selection
// and evaluator compilation — keyed by NestSignature, i.e. by the
// structure of the collapsed band modulo variable spelling. A hit adapts
// the cached Unranker to the caller's names with a shallow rename
// (compiled evaluators are positional and shared), so collapsing the same
// nest shape repeatedly — sweeps over parameter values, per-rank tools,
// long-running services — pays the compile cost once.
//
// A shape that fails with an applicability error (faults.Collapsible:
// non-affine bounds, a ranking beyond radicals, no convenient root,
// overflow) fails the same way on every compile, because those
// conditions depend on the signature alone; the cache stores that error
// too and answers later lookups with it. Panics and every other error
// are returned uncached, so a transient fault never sticks to a shape.
//
// The cache is safe for concurrent use and bounded: one mutex guards an
// exact LRU table that evicts its least recently used entry when over
// capacity. A hit holds the lock for a few map and list operations, far
// below the cost of the compile it saves.
type CollapseCache struct {
	mu  sync.Mutex
	art LRU[outcome]

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// outcome is one signature's compile result: the artifact, or the
// applicability error the shape fails with.
type outcome struct {
	u   *unrank.Unranker
	err error
}

// LRU is a string-keyed table bounded to capacity entries, least
// recently used first out. It is not safe for concurrent use: the owner
// holds its own lock around every call (CollapseCache.mu here; the serve
// daemon's request table and the autotuner's plan table elsewhere).
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

// Len reports how many entries are resident.
func (l *LRU[V]) Len() int { return l.order.Len() }

// NewCollapseCache returns a cache holding at most capacity compile
// outcomes. capacity <= 0 selects a default of 64.
func NewCollapseCache(capacity int) *CollapseCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &CollapseCache{art: NewLRU[outcome](capacity)}
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// Hits and Entries include memoized compile failures.
type CacheStats struct {
	Hits      int64 // lookups answered from the cache
	Misses    int64 // lookups that fell through to a full compile
	Evictions int64 // entries dropped by the LRU bound
	Entries   int   // outcomes currently resident
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

// get returns the outcome stored under sig, promoting the entry to most
// recently used.
func (c *CollapseCache) get(sig string) (outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.art.Get(sig)
}

// put stores o under sig, evicting the least recently used outcome when
// over capacity. evicted reports how many entries were dropped.
func (c *CollapseCache) put(sig string, o outcome) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.art.Get(sig); ok {
		// Concurrent miss on the same signature: keep the resident entry
		// (the outcomes are interchangeable).
		return 0
	}
	evicted = c.art.Put(sig, o)
	c.evictions.Add(int64(evicted))
	return evicted
}

// CollapseCached is Collapse routed through cache: a structural hit skips
// the whole symbolic pipeline and adapts the cached artifact to the
// caller's variable names (or returns the shape's memoized applicability
// error); a miss compiles normally and populates the cache. A nil cache,
// or a request NestSignature declines to canonicalize (custom
// SampleParams), degrades to a plain Collapse. Telemetry, when
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
// the NestSignature of (n, c, opts), and wants to know whether the cache
// answered: hit reports a structural hit, successful or not. A memoized
// failure is returned as first stored, so its message may spell the nest
// the way the request that compiled it did.
func CollapseSigned(cache *CollapseCache, sig string, n *nest.Nest, c int, opts unrank.Options) (res *Result, hit bool, err error) {
	defer guard(&res, &err)
	tel := opts.Telemetry
	if o, ok := cache.get(sig); ok {
		cache.hits.Add(1)
		tel.Counter("cache.hits").Add(1)
		if o.err != nil {
			return nil, true, o.err
		}
		sp := tel.StartSpan("compile", "core.CollapseCached.hit", 0)
		sub := &nest.Nest{
			Params: append([]string(nil), n.Params...),
			Loops:  append([]nest.Loop(nil), n.Loops[:c]...),
		}
		ru := o.u.Renamed(sub)
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
	var o outcome
	switch {
	case err == nil:
		o.u = res.Unranker
	case faults.Collapsible(err) && faults.AsPanic(err) == nil:
		o.err = err
	default:
		return res, false, err
	}
	if ev := cache.put(sig, o); ev > 0 {
		tel.Counter("cache.evictions").Add(int64(ev))
	}
	return res, false, err
}
