package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/nest"
	"repro/internal/poly"
	"repro/internal/serve"
)

// serveWL drives the in-process daemon on a loopback listener with a
// closed loop of one client on one keep-alive connection. The mix
// is mostly rank/unrank/count on warm shapes, plus execute (static,
// "auto" and sharded), codegen, and compiles of never-seen shapes.
// Every 2xx answer is checked against enumeration; a refusal, error or
// wrong answer is a failure.
//
// Each round gets a new daemon, started and warmed between rounds
// (untimed), so the same fixed set of fresh shapes is never-seen in
// every round however many rounds a run makes.
type serveWL struct {
	srv    *serve.Server
	client *serve.Client
	warm   []*warmShape
	fresh  []freshShape // never-seen shapes, one per compile request
	mix    []serveReq
}

// serveWarm is the number of warm shapes and serveTuples the least
// size of each (its first parameter grows until the space has that
// many tuples, so every seed executes about as much work).
const (
	serveWarm   = 9
	serveTuples = 20000
)

// serveMix is the request count of one round, by kind. It
// follows the default endpoint weights of cmd/loadgen,
// rank:unrank:count:execute:codegen = 3:3:1:1:1, at 12 requests per
// unit; execute's share is split evenly between static, "auto" and 4
// shards. Compiles of never-seen shapes, which loadgen does not send,
// are occasional: 3 of 111 requests. They are wedges (depth 3, cubic
// ranking), whose cold compile takes about 1.5 ms, three times the
// slowest warm request, so the 99th percentile falls among the
// compiles and not on host preemptions of cheap requests.
var serveMix = []struct {
	kind  string
	count int
}{
	{"rank", 36}, {"unrank", 36}, {"count", 12},
	{"execute", 4}, {"execute-auto", 4}, {"execute-shards", 4},
	{"codegen", 12}, {"compile", 3},
}

type warmShape struct {
	s        shape
	spec     *serve.NestSpec
	params   map[string]int64
	tuples   [][]int64 // every tuple, by rank-1
	checksum uint64    // Σ serve.TupleHash over tuples
}

type freshShape struct {
	spec   *serve.NestSpec
	params map[string]int64
	total  int64
}

type serveReq struct {
	kind  string
	warm  int
	pc    int64
	fresh int // compile: index into w.fresh
}

func (w *serveWL) setup(seed int64, st *steps) error {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	if err := st.time("reference", func() error {
		for k := 0; k < serveWarm; k++ {
			s, err := newUnique(rng, seen, compileFamilies[k%len(compileFamilies)], 0)
			if err != nil {
				return err
			}
			n, err := s.collapsedNest()
			if err != nil {
				return err
			}
			if err := sizeTo(n, &s, serveTuples); err != nil {
				return err
			}
			ws := &warmShape{s: s, spec: s.spec(), params: s.params()}
			inst, err := n.Bind(ws.params)
			if err != nil {
				return err
			}
			inst.Enumerate(func(idx []int64) bool {
				ws.tuples = append(ws.tuples, append([]int64(nil), idx...))
				ws.checksum += serve.TupleHash(idx)
				return true
			})
			w.warm = append(w.warm, ws)
		}
		// The fresh shapes are wedges, one per variant in turn.
		f := familyNamed("wedge")
		for k := 0; k < serveCompiles(); k++ {
			s, err := newUnique(rng, seen, f, k)
			if err != nil {
				return err
			}
			n, err := s.collapsedNest()
			if err != nil {
				return err
			}
			inst, err := n.Bind(s.params())
			if err != nil {
				return err
			}
			w.fresh = append(w.fresh, freshShape{spec: s.spec(), params: s.params(), total: inst.Count()})
		}
		return nil
	}); err != nil {
		return err
	}
	for _, m := range serveMix {
		for k := 0; k < m.count; k++ {
			wi := rng.Intn(len(w.warm))
			w.mix = append(w.mix, serveReq{kind: m.kind, warm: wi, pc: 1 + rng.Int63n(int64(len(w.warm[wi].tuples))), fresh: k})
		}
	}
	rng.Shuffle(len(w.mix), func(a, b int) { w.mix[a], w.mix[b] = w.mix[b], w.mix[a] })
	return st.time("server", w.restart)
}

// serveCompiles is the number of compile requests per round.
func serveCompiles() int {
	for _, m := range serveMix {
		if m.kind == "compile" {
			return m.count
		}
	}
	return 0
}

// newUnique draws a shape of family f, variant v, whose structure is
// not in seen, and adds it.
func newUnique(rng *rand.Rand, seen map[string]bool, f family, v int) (shape, error) {
	for try := 0; try < 1000; try++ {
		s := newShape(rng, f, v)
		if !seen[s.key] {
			seen[s.key] = true
			return s, nil
		}
	}
	return shape{}, fmt.Errorf("no unseen %s shape left", f.name)
}

// restart replaces the daemon with a new one and warms it the way a
// long-running daemon is warm: each warm shape compiled and its
// "auto" plan made, and the client's connection open. The fresh
// shapes are then never-seen again.
func (w *serveWL) restart() error {
	w.close()
	w.srv = serve.New(serve.Config{Threads: 2, Logf: func(string, ...any) {}})
	addr, err := w.srv.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.client = newClient("http://" + addr.String())
	cl := w.client
	ctx := context.Background()
	for _, ws := range w.warm {
		if _, err := cl.Compile(ctx, &serve.Request{Nest: ws.spec}); err != nil {
			return err
		}
		if _, err := cl.Execute(ctx, &serve.Request{Nest: ws.spec, Params: ws.params, Schedule: "auto"}); err != nil {
			return err
		}
	}
	return nil
}

// prepare gives the next round a new, warmed daemon; it runs between
// rounds, untimed.
func (w *serveWL) prepare() error { return w.restart() }

func (w *serveWL) round(r *recorder) {
	var before, after map[string]int64
	if r.lay != nil {
		before = w.srv.Registry().Snapshot().Counters
	}
	for _, q := range w.mix {
		t0 := time.Now()
		ok := w.send(r, q)
		r.op(time.Since(t0), ok)
	}
	if r.lay != nil {
		after = w.srv.Registry().Snapshot().Counters
		r.lay.daemon(before, after)
	}
}

// send issues request q and checks its answer.
func (w *serveWL) send(r *recorder, q serveReq) bool {
	ctx := context.Background()
	cl := w.client
	ws := w.warm[q.warm]
	req := &serve.Request{Nest: ws.spec, Params: ws.params}
	name := "serve." + q.kind
	switch q.kind {
	case "execute-auto":
		name = "serve.execute"
	case "execute-shards":
		name = "dist.execute"
	}
	sp := r.lane.begin(name)
	defer sp.end()
	corrupt := r.corrupt()
	switch q.kind {
	case "unrank":
		req.Pc = q.pc
		resp, err := cl.Unrank(ctx, req)
		if err != nil {
			return false
		}
		if corrupt {
			resp.Index[0]++
		}
		return equalTuple(resp.Index, ws.tuples[q.pc-1])
	case "rank":
		req.Index = ws.tuples[q.pc-1]
		resp, err := cl.Rank(ctx, req)
		return err == nil && !corrupt && resp.Pc == q.pc
	case "count":
		resp, err := cl.Count(ctx, req)
		return err == nil && !corrupt && resp.Total == int64(len(ws.tuples))
	case "execute", "execute-auto", "execute-shards":
		req.Schedule = "static"
		if q.kind == "execute-auto" {
			req.Schedule = "auto"
		}
		if q.kind == "execute-shards" {
			req.Shards = 4
		}
		resp, err := cl.Execute(ctx, req)
		if err != nil {
			return false
		}
		if resp.Sharded && r.lay != nil {
			r.lay.sharded(resp.ShardRetries)
		}
		return !corrupt && resp.Iterations == int64(len(ws.tuples)) && resp.Checksum == ws.checksum
	case "codegen":
		resp, err := cl.Codegen(ctx, req)
		return err == nil && !corrupt && strings.Contains(resp.Code, "#pragma omp") &&
			strings.Contains(resp.Code, ws.s.idx[0])
	case "compile":
		f := w.fresh[q.fresh]
		resp, err := cl.Compile(ctx, &serve.Request{Nest: f.spec})
		if err != nil || resp.Cached {
			return false
		}
		total, err := evalTotal(resp.Total, f.params)
		return err == nil && !corrupt && total == f.total
	}
	return false
}

// sizeTo raises s's first parameter to the least value at which n has
// at least want tuples.
func sizeTo(n *nest.Nest, s *shape, want int64) error {
	count := func(v int64) (int64, error) {
		s.vals[0] = v
		inst, err := n.Bind(s.params())
		if err != nil {
			return 0, err
		}
		return inst.Count(), nil
	}
	lo, hi := int64(1), int64(1)
	for {
		c, err := count(hi)
		if err != nil {
			return err
		}
		if c >= want {
			break
		}
		lo, hi = hi, hi*2
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		c, err := count(mid)
		if err != nil {
			return err
		}
		if c >= want {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	_, err := count(hi)
	return err
}

// evalTotal evaluates the daemon's counting polynomial at params.
func evalTotal(src string, params map[string]int64) (int64, error) {
	p, err := poly.Parse(src)
	if err != nil {
		return 0, err
	}
	v, err := p.EvalInt64(params)
	if err != nil {
		return 0, err
	}
	if !v.IsInt() {
		return 0, fmt.Errorf("count %v is not an integer", v)
	}
	n := new(big.Int).Set(v.Num())
	if !n.IsInt64() {
		return 0, fmt.Errorf("count %v overflows int64", n)
	}
	return n.Int64(), nil
}

func (w *serveWL) probe() *probeSet {
	ps := &probeSet{reps: 3}
	for _, ws := range w.warm {
		n, err := ws.s.collapsedNest()
		if err != nil {
			continue
		}
		ps.shapes = append(ps.shapes, probeShape{name: ws.s.key, src: ws.s.source(), n: n,
			c: ws.s.c, params: ws.params})
	}
	return ps
}

func (w *serveWL) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := w.srv.Shutdown(ctx); err != nil {
			w.srv.Close()
		}
		cancel()
		w.srv = nil
	}
	if w.client != nil {
		w.client.HTTPClient.CloseIdleConnections()
	}
}

// newClient is a daemon client with one keep-alive connection and no
// retries: a refused or failed request counts as a failure.
func newClient(base string) *serve.Client {
	c := serve.NewClient(base)
	c.MaxRetries = -1
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return c
}
