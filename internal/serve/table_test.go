package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/poly"
)

// spellings are three requests for the triangle: the canonical one, an
// alpha-renamed one and a whitespace-only respelling. Each is its own
// table entry; the collapse cache shares their compile.
func spellings(nv int64) map[string]*Request {
	return map[string]*Request{
		"canonical": triRequest(nv),
		"renamed": {Nest: &NestSpec{Loops: []LoopSpec{
			{Index: "a", Lower: "0", Upper: "M - 1"},
			{Index: "b", Lower: "a + 1", Upper: "M"},
		}}, Params: map[string]int64{"M": nv}},
		"respaced": {Nest: &NestSpec{Loops: []LoopSpec{
			{Index: "i", Lower: "0", Upper: "N-1"},
			{Index: "j", Lower: "i+1", Upper: "N"},
		}}, Params: map[string]int64{"N": nv}},
	}
}

// withQuery copies base and applies one endpoint's query fields.
func withQuery(base *Request, f func(*Request)) *Request {
	r := *base
	f(&r)
	return &r
}

// TestTableHitAnswersLikeMiss sends every endpoint's request twice to a
// fresh daemon — a table miss, then a hit — for each spelling, and
// checks both answers are equal and match the enumeration.
func TestTableHitAnswersLikeMiss(t *testing.T) {
	const N = 12
	tuples, checksum := triEnum(t, N)
	total := int64(len(tuples))
	ctx := context.Background()
	for name, base := range spellings(N) {
		t.Run(name, func(t *testing.T) {
			checks := map[string]struct {
				call  func(s *Server, ctx context.Context, req *Request) (any, error)
				reqs  []*Request
				check func(req *Request, resp any) error
			}{
				"compile": {(*Server).handleCompile, []*Request{base}, func(req *Request, resp any) error {
					p, err := poly.Parse(resp.(*CompileResponse).Total)
					if err != nil {
						return err
					}
					v, err := p.EvalInt64(req.Params)
					if err != nil || v.Num().Int64() != total || !v.IsInt() {
						return fmt.Errorf("total polynomial gives %v, want %d (%v)", v, total, err)
					}
					return nil
				}},
				"count": {(*Server).handleCount, []*Request{base}, func(_ *Request, resp any) error {
					if got := resp.(*CountResponse).Total; got != total {
						return fmt.Errorf("count %d, want %d", got, total)
					}
					return nil
				}},
				"rank": {(*Server).handleRank, nil, func(req *Request, resp any) error {
					if got, want := resp.(*RankResponse).Pc, rankOf(tuples, req.Index); got != want {
						return fmt.Errorf("rank(%v) = %d, want %d", req.Index, got, want)
					}
					return nil
				}},
				"unrank": {(*Server).handleUnrank, nil, func(req *Request, resp any) error {
					if got, want := resp.(*UnrankResponse).Index, tuples[req.Pc-1]; !reflect.DeepEqual(got, want) {
						return fmt.Errorf("unrank(%d) = %v, want %v", req.Pc, got, want)
					}
					return nil
				}},
				"codegen": {(*Server).handleCodegen, []*Request{base}, func(_ *Request, resp any) error {
					if !strings.Contains(resp.(*CodegenResponse).Code, "#pragma omp") {
						return fmt.Errorf("codegen emitted no parallel loop")
					}
					return nil
				}},
				"execute": {(*Server).handleExecute, []*Request{
					withQuery(base, func(r *Request) { r.Schedule = "dynamic,4" }),
					withQuery(base, func(r *Request) { r.Schedule = "auto" }),
					withQuery(base, func(r *Request) { r.Shards = 3 }),
				}, func(_ *Request, resp any) error {
					ex := resp.(*ExecuteResponse)
					if ex.Iterations != total || ex.Checksum != checksum || !ex.Collapsed {
						return fmt.Errorf("execute = %+v, want %d iterations, checksum %d", ex, total, checksum)
					}
					return nil
				}},
			}
			for pc, tup := range tuples {
				c := checks["rank"]
				c.reqs = append(c.reqs, withQuery(base, func(r *Request) { r.Index = tup }))
				checks["rank"] = c
				c = checks["unrank"]
				c.reqs = append(c.reqs, withQuery(base, func(r *Request) { r.Pc = int64(pc) + 1 }))
				checks["unrank"] = c
			}
			for ep, c := range checks {
				s := New(Config{Threads: 2, Logf: t.Logf})
				for _, req := range c.reqs {
					miss, err := c.call(s, ctx, req)
					if err != nil {
						t.Fatalf("%s miss: %v", ep, err)
					}
					if n := s.table.len(); n != 1 {
						t.Fatalf("%s: table holds %d entries after the first request, want 1", ep, n)
					}
					hit, err := c.call(s, ctx, req)
					if err != nil {
						t.Fatalf("%s hit: %v", ep, err)
					}
					if ep == "compile" {
						if !hit.(*CompileResponse).Cached {
							t.Errorf("compile hit not reported cached")
						}
						miss.(*CompileResponse).Cached = true
					}
					if ep == "execute" {
						// Timings and the tuned team size vary run to run.
						for _, r := range []any{miss, hit} {
							ex := r.(*ExecuteResponse)
							ex.PredictedMs, ex.ActualMs, ex.Threads, ex.Schedule = 0, 0, 0, ""
						}
					}
					if !reflect.DeepEqual(miss, hit) {
						t.Fatalf("%s: miss answered %+v, hit %+v", ep, miss, hit)
					}
					for _, resp := range []any{miss, hit} {
						if err := c.check(req, resp); err != nil {
							t.Fatalf("%s: %v", ep, err)
						}
					}
				}
			}
		})
	}

	// One daemon, all three spellings: three entries, one compile.
	s := New(Config{Logf: t.Logf})
	for _, req := range spellings(N) {
		if _, err := s.handleCount(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.table.len(); n != 3 {
		t.Fatalf("three spellings hold %d table entries, want 3", n)
	}
	if st := s.cache.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("collapse cache after three spellings: %v, want 1 miss and 2 hits", st)
	}
}

func rankOf(tuples [][]int64, idx []int64) int64 {
	for k, tup := range tuples {
		if reflect.DeepEqual(tup, idx) {
			return int64(k) + 1
		}
	}
	return 0
}

// TestRequestKeyInjective checks pairs of requests whose fields, joined
// without length prefixes, would read the same.
func TestRequestKeyInjective(t *testing.T) {
	loops := func(fields ...string) *NestSpec {
		spec := &NestSpec{}
		for k := 0; k+2 < len(fields); k += 3 {
			spec.Loops = append(spec.Loops, LoopSpec{Index: fields[k], Lower: fields[k+1], Upper: fields[k+2]})
		}
		return spec
	}
	pairs := [][2]*Request{
		{{Nest: loops("i", "10", "N", "j", "0", "N")}, {Nest: loops("i1", "0", "N", "j", "0", "N")}},
		{{Nest: loops("i", "0;1", "N")}, {Nest: loops("i", "0", "1;N")}},
		{{Nest: &NestSpec{Params: []string{"N;M"}, Loops: loops("i", "0", "N").Loops}},
			{Nest: &NestSpec{Params: []string{"N", "M"}, Loops: loops("i", "0", "N").Loops}}},
		{{Nest: &NestSpec{Params: []string{"N"}, Loops: loops("i", "0", "N").Loops}},
			{Nest: &NestSpec{Loops: loops("N", "i", "0", "N").Loops}}},
		{{Src: "1;-"}, {Src: "1", Nest: &NestSpec{}}},
		{{Src: "x", Collapse: 12}, {Src: "x1", Collapse: 2}},
		{{Params: map[string]int64{"N": 12}}, {Params: map[string]int64{"N1": 2}}},
		{{Params: map[string]int64{"N": 1, "M": 2}}, {Params: map[string]int64{"M": 2, "N": 1, "": 0}}},
		{{Params: map[string]int64{"A": 1}}, {Params: map[string]int64{"A;1;": 0}}},
		{{Params: map[string]int64{"A": -1}}, {Params: map[string]int64{"A": 1}}},
	}
	for k, p := range pairs {
		if a, b := requestKey(p[0]), requestKey(p[1]); a == b {
			t.Errorf("pair %d: both requests encode as %q", k, a)
		}
	}
	if a, b := requestKey(pairs[6][0]), requestKey(&Request{Params: map[string]int64{"N": 12}}); a != b {
		t.Errorf("equal requests encode differently: %q, %q", a, b)
	}

	// The first pair is two valid nests, i in [10,N) and i1 in [0,N):
	// distinct entries with distinct, correct counts.
	s := New(Config{Logf: t.Logf})
	want := []int64{(20 - 10) * 20, 20 * 20}
	for k, req := range pairs[0] {
		req.Params = map[string]int64{"N": 20}
		resp, err := s.handleCount(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(*CountResponse).Total; got != want[k] {
			t.Errorf("spec %d: count %d, want %d", k, got, want[k])
		}
	}
	if n := s.table.len(); n != 2 {
		t.Fatalf("table holds %d entries, want 2", n)
	}
}

// TestWarmRankUnrankConcurrent shares one warm entry among 8 goroutines
// (the race detector checks that each request clones its Bound).
func TestWarmRankUnrankConcurrent(t *testing.T) {
	const N = 40
	tuples, _ := triEnum(t, N)
	s := New(Config{Logf: t.Logf})
	ctx := context.Background()
	if _, err := s.handleCount(ctx, triRequest(N)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(tuples); k += 3 {
				req := triRequest(N)
				req.Index = tuples[k]
				r, err := s.handleRank(ctx, req)
				if err != nil || r.(*RankResponse).Pc != int64(k)+1 {
					errs <- fmt.Errorf("rank(%v) = %v, %v; want %d", tuples[k], r, err, k+1)
					return
				}
				req = triRequest(N)
				req.Pc = int64(k) + 1
				u, err := s.handleUnrank(ctx, req)
				if err != nil || !reflect.DeepEqual(u.(*UnrankResponse).Index, tuples[k]) {
					errs <- fmt.Errorf("unrank(%d) = %v, %v; want %v", k+1, u, err, tuples[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := s.table.len(); n != 1 {
		t.Fatalf("table holds %d entries, want 1", n)
	}
}

// TestTableBoundedByCacheCapacity sends more distinct requests than
// CacheCapacity and checks the table never grows past it.
func TestTableBoundedByCacheCapacity(t *testing.T) {
	s := New(Config{CacheCapacity: 3, Logf: t.Logf})
	for nv := int64(5); nv < 15; nv++ {
		if _, err := s.handleCount(context.Background(), triRequest(nv)); err != nil {
			t.Fatal(err)
		}
		if n := s.table.len(); n > 3 {
			t.Fatalf("table holds %d entries at capacity 3", n)
		}
	}
	if n := s.table.len(); n != 3 {
		t.Fatalf("table holds %d entries after 10 requests, want 3", n)
	}
}

// TestFailedCompileNotStored checks that neither a malformed request
// nor a failing compile enters the table, so the breaker sees every
// retry, and that the same request is stored once it compiles.
func TestFailedCompileNotStored(t *testing.T) {
	s := New(Config{BreakerThreshold: -1, Logf: t.Logf})
	ctx := context.Background()
	if _, err := s.handleCompile(ctx, &Request{Nest: &NestSpec{}}); err == nil {
		t.Fatal("empty nest compiled")
	}
	restore := faults.Activate(&faults.Plan{
		PerturbRoot: func(level int, x complex128) complex128 { return x + 1000 },
	})
	for i := 0; i < 3; i++ {
		if _, err := s.handleCompile(ctx, triRequest(30)); err == nil {
			restore()
			t.Fatal("poisoned compile succeeded")
		}
	}
	restore()
	if n := s.table.len(); n != 0 {
		t.Fatalf("failed requests left %d table entries", n)
	}
	if _, err := s.handleCompile(ctx, triRequest(30)); err != nil {
		t.Fatalf("compile after the fault cleared: %v", err)
	}
	if n := s.table.len(); n != 1 {
		t.Fatalf("table holds %d entries after a good compile, want 1", n)
	}
}

// warmAllocs pins the allocation count of each warm in-process handler:
// key encoding, one Bound clone and the response. A warm request that
// parsed, signed, renamed or bound again would allocate hundreds more.
var warmAllocs = map[string]float64{"rank": 6, "unrank": 7, "count": 5}

func TestWarmHandlerAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short mode")
	}
	s := New(Config{Logf: t.Logf})
	ctx := context.Background()
	rank := triRequest(40)
	rank.Index = []int64{7, 30}
	unrank := triRequest(40)
	unrank.Pc = 500
	handlers := map[string]func() (any, error){
		"rank":   func() (any, error) { return s.handleRank(ctx, rank) },
		"unrank": func() (any, error) { return s.handleUnrank(ctx, unrank) },
		"count":  func() (any, error) { return s.handleCount(ctx, rank) },
	}
	for name, h := range handlers {
		if _, err := h(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := s.cache.Stats()
		got := testing.AllocsPerRun(200, func() {
			if _, err := h(); err != nil {
				t.Fatal(err)
			}
		})
		if after := s.cache.Stats(); after != before {
			t.Errorf("warm %s reached the collapse cache: %v -> %v", name, before, after)
		}
		if got != warmAllocs[name] {
			t.Errorf("warm %s: %v allocations per request, pinned at %v", name, got, warmAllocs[name])
		}
	}
}

// BenchmarkWarmRequest times warm /v1/rank and /v1/unrank through the
// daemon's full handler (JSON, admission, lifecycle, table hit).
func BenchmarkWarmRequest(b *testing.B) {
	s := New(Config{Logf: b.Logf})
	h := s.Handler()
	for _, ep := range []string{"rank", "unrank"} {
		req := triRequest(200)
		req.Index = []int64{50, 120}
		req.Pc = 7000
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		post := func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/"+ep, bytes.NewReader(body)))
			return w
		}
		if w := post(); w.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", ep, w.Code, w.Body)
		}
		b.Run(ep, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w := post(); w.Code != http.StatusOK {
					b.Fatalf("status %d", w.Code)
				}
			}
		})
	}
}
