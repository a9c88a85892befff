package serve

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// requestTable answers repeated requests without re-running the
// symbolic front end: it maps a request's key (requestKey) to the nest
// it parses to, the collapse result and the parameter binding, so a warm
// rank, unrank or count skips parsing, the NestSignature, the cache
// hit's rename and Bind — the paper's compile-once, recover-per-query
// split carried to the daemon. The table is an exact LRU bounded by
// Config.CacheCapacity and holds only successful compiles, so a failing
// shape still reaches the circuit breaker on every request.
type requestTable struct {
	mu  sync.Mutex
	lru core.LRU[*tableEntry]
}

// tableEntry is one request's compiled front end. It is immutable once
// stored: concurrent requests share it, and rank/unrank Clone the bound
// template rather than using it.
type tableEntry struct {
	n   *nest.Nest
	c   int
	res *core.Result
	// bound is res bound to the request's params, or nil with bindErr
	// set when they do not bind (missing, or a count past the int64 pc
	// range).
	bound   *unrank.Bound
	bindErr error
}

func newRequestTable(capacity int) *requestTable {
	return &requestTable{lru: core.NewLRU[*tableEntry](capacity)}
}

func (t *requestTable) get(key string) (*tableEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Get(key)
}

func (t *requestTable) put(key string, e *tableEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lru.Put(key, e)
}

func (t *requestTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}

// clone returns a private Bound for one request (a Bound is not safe for
// concurrent use), or the binding's error.
func (e *tableEntry) clone() (*unrank.Bound, error) {
	if e.bound == nil {
		return nil, e.bindErr
	}
	return e.bound.Clone(), nil
}

// requestKey encodes every Request field that determines the compiled
// front end and the binding: Src, the Nest spec verbatim, Collapse and
// Params sorted by name. Every string is length-prefixed and every
// number terminated, so the encoding is injective — no field content,
// separators included, can make two different requests collide. Two
// spellings of one nest (renamed, re-spaced) get distinct keys; the
// collapse cache behind the table still shares their compile.
func requestKey(req *Request) string {
	var stack [8]string
	names := stack[:0]
	size := len(req.Src) + 32
	for name := range req.Params {
		names = append(names, name)
		size += len(name) + 24
	}
	slices.Sort(names)
	if req.Nest != nil {
		for _, p := range req.Nest.Params {
			size += len(p) + 4
		}
		for _, l := range req.Nest.Loops {
			size += len(l.Index) + len(l.Lower) + len(l.Upper) + 12
		}
	}

	var b strings.Builder
	b.Grow(size)
	var num [20]byte
	putInt := func(v int64) {
		b.Write(strconv.AppendInt(num[:0], v, 10))
		b.WriteByte(';')
	}
	putStr := func(s string) {
		putInt(int64(len(s)))
		b.WriteString(s)
	}
	putStr(req.Src)
	if req.Nest == nil {
		b.WriteByte('-')
	} else {
		b.WriteByte('+')
		putInt(int64(len(req.Nest.Params)))
		for _, p := range req.Nest.Params {
			putStr(p)
		}
		putInt(int64(len(req.Nest.Loops)))
		for _, l := range req.Nest.Loops {
			putStr(l.Index)
			putStr(l.Lower)
			putStr(l.Upper)
		}
	}
	putInt(int64(req.Collapse))
	putInt(int64(len(names)))
	for _, name := range names {
		putStr(name)
		putInt(req.Params[name])
	}
	return b.String()
}

// resolve returns req's compiled entry: a table hit, or buildNest and
// compileFor followed by storing the result. hit reports that the table
// or the collapse cache answered.
func (s *Server) resolve(req *Request) (e *tableEntry, hit bool, err error) {
	key := requestKey(req)
	if e, ok := s.table.get(key); ok {
		return e, true, nil
	}
	n, c, err := buildNest(req)
	if err != nil {
		return nil, false, badRequest("%v", err)
	}
	return s.compileEntry(key, n, c, req.Params)
}

// compileEntry compiles (n, c) through the breaker and the collapse
// cache, binds params, and stores the entry under key. A failed compile
// is returned and not stored.
func (s *Server) compileEntry(key string, n *nest.Nest, c int, params map[string]int64) (*tableEntry, bool, error) {
	res, cached, err := s.compileFor(n, c)
	if err != nil {
		return nil, false, err
	}
	e := &tableEntry{n: n, c: c, res: res}
	e.bound, e.bindErr = res.Unranker.Bind(params)
	s.table.put(key, e)
	return e, cached, nil
}
