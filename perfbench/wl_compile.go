package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/unrank"
)

// compileWL is the source-to-source tool's path: a seeded stream of
// mini-C nests, each parsed, collapsed through the collapse cache,
// emitted as C and bound at small parameters, then checked against
// enumeration. About half the stream repeats an earlier shape under
// α-renaming, so cache misses and hits share one stream. Every round
// starts from an empty cache, so each round does the same work.
type compileWL struct {
	stream []compileItem
}

// freshPerFamily is how many distinct shapes of each family one round
// compiles cold; each is repeated once under α-renaming. The wedge, the
// family with the slowest cold compile (about 1.2 ms; 1 ms or less for
// the others), has one: 1 operation in 66, so compile/p99_ms falls low
// in the wedge's own compile time. With 4 wedges it fell in their upper
// fifth, which holds the wedges a collection or a preemption slowed,
// and moved by a quarter as their number changed.
func freshPerFamily(f family) int {
	if f.name == "wedge" {
		return 1
	}
	return 4
}

// compileOpts runs the symbolic pipeline serially. With the default
// per-level fan-out a cold compile's latency depends on the second core
// being free, which on a shared two-core host made compile/p99_ms
// spread by about 40% between runs (5% serial).
var compileOpts = unrank.Options{CompileWorkers: 1}

// compileSamples is how many rank/unrank pairs each nest is checked on,
// besides its first and last rank.
const compileSamples = 6

type compileItem struct {
	s   shape
	src string
	ref *reference
}

func (w *compileWL) setup(seed int64, st *steps) error {
	rng := rand.New(rand.NewSource(seed))
	if err := st.time("generate", func() error {
		w.stream = compileStream(rng)
		return nil
	}); err != nil {
		return err
	}
	return st.time("reference", func() error {
		for i := range w.stream {
			it := &w.stream[i]
			n, err := it.s.collapsedNest()
			if err != nil {
				return err
			}
			if it.ref, err = enumerate(n, it.s.params(), compileSamples, rng); err != nil {
				return fmt.Errorf("%s: %w", it.s.key, err)
			}
		}
		return nil
	})
}

// compileStream draws freshPerFamily(f) distinct shapes of family f,
// one per coefficient variant in turn, in a seeded order, then places
// an α-renamed copy of each somewhere after its original.
func compileStream(rng *rand.Rand) []compileItem {
	seen := map[string]bool{}
	var fresh []shape
	for _, f := range compileFamilies {
		for v := 0; v < freshPerFamily(f); {
			s := newShape(rng, f, v)
			if seen[s.key] {
				continue
			}
			seen[s.key] = true
			fresh = append(fresh, s)
			v++
		}
	}
	rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
	stream := append([]shape(nil), fresh...)
	for _, orig := range fresh {
		pos := 0
		for stream[pos].key != orig.key {
			pos++
		}
		at := pos + 1 + rng.Intn(len(stream)-pos)
		stream = append(stream[:at], append([]shape{orig.renamed(rng)}, stream[at:]...)...)
	}
	items := make([]compileItem, len(stream))
	for i, s := range stream {
		items[i] = compileItem{s: s, src: s.source()}
	}
	return items
}

func (w *compileWL) round(r *recorder) {
	cache := core.NewCollapseCache(256)
	for i := range w.stream {
		t0 := time.Now()
		ok := w.stream[i].compile(r, cache)
		r.op(time.Since(t0), ok)
	}
}

// compile runs one nest through parse → CollapseCached → EmitC → Bind
// and checks the total and sampled rank/unrank pairs.
func (it *compileItem) compile(r *recorder, cache *core.CollapseCache) bool {
	ln := r.lane
	op := ln.begin("compile.op")
	defer op.end()
	sp := ln.begin("cparse.parse")
	prog, err := cparse.Parse(it.src)
	sp.end()
	if err != nil {
		return false
	}
	hits := cache.Stats().Hits
	sp = ln.begin("core.collapse")
	res, err := core.CollapseCached(cache, prog.Nest, prog.CollapseCount, compileOpts)
	if cache.Stats().Hits > hits {
		sp.rename("core.cache_hit")
	}
	sp.end()
	if err != nil {
		return false
	}
	sp = ln.begin("codegen.emit")
	code, err := codegen.EmitC(res, codegen.Options{})
	sp.end()
	if err != nil || !strings.Contains(code, "#pragma omp") {
		return false
	}
	sp = ln.begin("unrank.bind")
	b, err := res.Unranker.Bind(it.s.params())
	sp.end()
	if err != nil {
		return false
	}
	ref := it.ref
	total := b.Total()
	if r.corrupt() {
		total++
	}
	if total != ref.total {
		return false
	}
	ok := unrankAll(ln, r.lay, b, ref.pcs, nil, func(k int, idx []int64) bool { return equalTuple(idx, ref.tuples[k]) })
	for k, pc := range ref.pcs {
		if b.Rank(ref.tuples[k]) != pc {
			ok = false
		}
	}
	return ok
}

func (w *compileWL) probe() *probeSet {
	ps := &probeSet{reps: 1}
	seen := map[string]bool{}
	for _, it := range w.stream {
		if seen[it.s.family] {
			continue
		}
		seen[it.s.family] = true
		prog, err := cparse.Parse(it.src)
		if err != nil {
			continue
		}
		ps.shapes = append(ps.shapes, probeShape{name: it.s.key, src: it.src, n: prog.Nest,
			c: prog.CollapseCount, params: it.s.params()})
	}
	return ps
}

func (w *compileWL) close() {}
