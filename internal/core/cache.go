package core

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// CollapseCache memoizes the outcome of the expensive symbolic phase of
// Collapse — the ranking construction, radical solving, root selection
// and evaluator compilation — under Key, the integer encoding of the
// collapsed band's canonical form: spellings that differ in names or in
// constant translations of their loops share one entry. Collapse
// compiles that canonical form whatever the spelling, so a hit only
// builds a view of the cached Unranker with the caller's names and
// offsets (compiled evaluators are positional and shared), and
// collapsing the same nest shape repeatedly — sweeps over parameter
// values, per-rank tools, long-running services — pays the compile cost
// once.
//
// A shape that fails with an applicability error (faults.Collapsible:
// non-affine bounds, a ranking beyond radicals, no convenient root,
// overflow) fails the same way on every compile, because those
// conditions depend on the canonical form alone; the cache stores that
// error too and answers later lookups with it. Panics and every other
// error are returned uncached, so a transient fault never sticks to a
// shape.
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

// outcome is one key's compile result: the artifact, or the
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

// get returns the outcome stored under key, promoting the entry to most
// recently used.
func (c *CollapseCache) get(key string) (outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.art.Get(key)
}

// put stores o under key, evicting the least recently used outcome when
// over capacity. evicted reports how many entries were dropped.
func (c *CollapseCache) put(key string, o outcome) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.art.Get(key); ok {
		// Concurrent miss on the same key: keep the resident entry
		// (the outcomes are interchangeable).
		return 0
	}
	evicted = c.art.Put(key, o)
	c.evictions.Add(int64(evicted))
	return evicted
}

// CollapseCached is Collapse routed through cache: a hit on the key of
// the band's canonical form (Key) skips the whole symbolic pipeline and
// returns a view of the cached artifact in the caller's names and
// offsets (or returns the shape's memoized applicability error); a miss
// compiles normally and populates the cache. A nil cache, or a request
// Key declines (custom SampleParams), degrades to a plain Collapse.
// Telemetry, when configured in opts, receives cache.hits /
// cache.misses / cache.evictions counters.
func CollapseCached(cache *CollapseCache, n *nest.Nest, c int, opts unrank.Options) (*Result, error) {
	res, _, err := collapseCached(cache, n, c, opts, false)
	return res, err
}

// CollapseCachedExact is CollapseCached with one entry per translation:
// the rebase offsets join the key, so only spellings that differ in
// their names alone share an entry, and a constant translate of a
// cached nest compiles cold. hit reports whether the cache answered,
// successfully or not; a memoized failure is returned as first stored.
// The serve daemon uses it, so that its answers report a cache hit only
// for a nest it has compiled before up to renaming.
func CollapseCachedExact(cache *CollapseCache, n *nest.Nest, c int, opts unrank.Options) (res *Result, hit bool, err error) {
	return collapseCached(cache, n, c, opts, true)
}

func collapseCached(cache *CollapseCache, n *nest.Nest, c int, opts unrank.Options, exact bool) (res *Result, hit bool, err error) {
	if cache == nil {
		res, err = Collapse(n, c, opts)
		return res, false, err
	}
	defer guard(&res, &err)
	key, rb, ok := Key(n, c, opts)
	if !ok {
		res, err = Collapse(n, c, opts)
		return res, false, err
	}
	if exact {
		buf := []byte(key)
		for _, d := range rb.Offset {
			buf = binary.AppendVarint(buf, d)
		}
		key = string(buf)
	}
	tel := opts.Telemetry
	if o, ok := cache.get(key); ok {
		cache.hits.Add(1)
		tel.Counter("cache.hits").Add(1)
		if o.err != nil {
			return nil, true, o.err
		}
		sp := tel.StartSpan("compile", "core.CollapseCached.hit", 0)
		sub := band(n, 0, c)
		res = &Result{Nest: n, C: c, SubNest: sub, Unranker: o.u.View(sub, rb.Offset)}
		sp.End()
		return res, true, nil
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
	if ev := cache.put(key, o); ev > 0 {
		tel.Counter("cache.evictions").Add(int64(ev))
	}
	return res, false, err
}
