package serve

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// triSpec is the canonical triangular nest used across the server tests.
func triSpec() *NestSpec {
	return &NestSpec{Loops: []LoopSpec{
		{Index: "i", Lower: "0", Upper: "N - 1"},
		{Index: "j", Lower: "i + 1", Upper: "N"},
	}}
}

func triRequest(n int64) *Request {
	return &Request{Nest: triSpec(), Params: map[string]int64{"N": n}}
}

// triEnum enumerates the triangular domain sequentially: the ground
// truth for rank/unrank/execute answers.
func triEnum(t *testing.T, nv int64) (tuples [][]int64, checksum uint64) {
	t.Helper()
	n, err := buildStructured(triSpec())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := n.Bind(map[string]int64{"N": nv})
	if err != nil {
		t.Fatal(err)
	}
	inst.Enumerate(func(idx []int64) bool {
		tup := append([]int64(nil), idx...)
		tuples = append(tuples, tup)
		checksum += TupleHash(tup)
		return true
	})
	return tuples, checksum
}

// startServer boots a test daemon and returns a client on it.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	s := New(cfg)
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := NewClient("http://" + addr.String())
	c.MaxRetries = -1
	return s, c
}

func TestEndpointAnswersMatchEnumeration(t *testing.T) {
	_, c := startServer(t, Config{Threads: 2})
	ctx := context.Background()
	const N = 25
	tuples, checksum := triEnum(t, N)

	comp, err := c.Compile(ctx, triRequest(N))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if comp.Collapse != 2 || comp.Ranking == "" || len(comp.Roots) != 1 {
		t.Fatalf("compile response malformed: %+v", comp)
	}
	if comp.Cached {
		t.Fatalf("first compile reported cached")
	}
	comp2, err := c.Compile(ctx, triRequest(N))
	if err != nil {
		t.Fatalf("second compile: %v", err)
	}
	if !comp2.Cached {
		t.Fatalf("second compile not served from cache")
	}

	cnt, err := c.Count(ctx, triRequest(N))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if cnt.Total != int64(len(tuples)) {
		t.Fatalf("count = %d, want %d", cnt.Total, len(tuples))
	}

	// Rank and unrank roundtrip every tuple of the enumeration.
	for pc1, tup := range tuples {
		pc := int64(pc1) + 1
		req := triRequest(N)
		req.Index = tup
		r, err := c.Rank(ctx, req)
		if err != nil {
			t.Fatalf("rank(%v): %v", tup, err)
		}
		if r.Pc != pc {
			t.Fatalf("rank(%v) = %d, want %d", tup, r.Pc, pc)
		}
		req = triRequest(N)
		req.Pc = pc
		u, err := c.Unrank(ctx, req)
		if err != nil {
			t.Fatalf("unrank(%d): %v", pc, err)
		}
		if len(u.Index) != 2 || u.Index[0] != tup[0] || u.Index[1] != tup[1] {
			t.Fatalf("unrank(%d) = %v, want %v", pc, u.Index, tup)
		}
	}

	gen, err := c.Codegen(ctx, triRequest(N))
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	if gen.Language != "c" || gen.Code == "" {
		t.Fatalf("codegen response malformed: %+v", gen)
	}

	req := triRequest(N)
	req.Schedule = "dynamic,16"
	ex, err := c.Execute(ctx, req)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if ex.Iterations != int64(len(tuples)) || ex.Checksum != checksum {
		t.Fatalf("execute = %d iters checksum %d, want %d/%d",
			ex.Iterations, ex.Checksum, len(tuples), checksum)
	}
	if !ex.Collapsed || ex.Degraded {
		t.Fatalf("execute ran the wrong engine: %+v", ex)
	}
}

func TestBadRequestsClassify400(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx := context.Background()
	cases := []*Request{
		{},                          // no nest at all
		{Nest: triSpec(), Src: "x"}, // both forms
		{Nest: &NestSpec{}},         // empty nest
	}
	for i, req := range cases {
		_, err := c.Compile(ctx, req)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("case %d: err = %v, want 400 APIError", i, err)
		}
	}
	// Out-of-domain queries are caller mistakes, not server faults.
	req := triRequest(10)
	req.Index = []int64{5, 2} // j <= i: outside the triangle
	_, err := c.Rank(context.Background(), req)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("out-of-domain rank: err = %v, want 400", err)
	}
	req = triRequest(10)
	req.Pc = 10_000
	_, err = c.Unrank(context.Background(), req)
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("out-of-range unrank: err = %v, want 400", err)
	}
}

// TestScheduleClauseValidated checks the daemon boundary of the
// schedule grammar: a clause omp.ParseSchedule rejects answers 400
// bad_request on /v1/execute (instead of running static) and on
// /v1/codegen (instead of being pasted into the emitted pragma), while
// the clauses perfbench and loadgen send still answer 200.
func TestScheduleClauseValidated(t *testing.T) {
	_, c := startServer(t, Config{Threads: 2})
	ctx := context.Background()
	const N = 20
	tuples, checksum := triEnum(t, N)
	for _, clause := range []string{"bogus", "dynamic,0", "static,x"} {
		req := triRequest(N)
		req.Schedule = clause
		_, err := c.Execute(ctx, req)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Class != "bad_request" {
			t.Errorf("execute schedule %q: err = %v, want 400 bad_request", clause, err)
		}
		_, err = c.Codegen(ctx, req)
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Class != "bad_request" {
			t.Errorf("codegen schedule %q: err = %v, want 400 bad_request", clause, err)
		}
	}
	for _, clause := range []string{"static", "auto", "dynamic,64", "guided, 8"} {
		req := triRequest(N)
		req.Schedule = clause
		ex, err := c.Execute(ctx, req)
		if err != nil {
			t.Errorf("execute schedule %q: %v", clause, err)
		} else if ex.Iterations != int64(len(tuples)) || ex.Checksum != checksum {
			t.Errorf("execute schedule %q = %d/%d, want %d/%d", clause, ex.Iterations, ex.Checksum, len(tuples), checksum)
		}
		cg, err := c.Codegen(ctx, req)
		if err != nil {
			t.Errorf("codegen schedule %q: %v", clause, err)
		} else if !strings.Contains(cg.Code, "schedule("+clause+")") {
			t.Errorf("codegen schedule %q: pragma lacks the clause:\n%s", clause, cg.Code)
		}
	}
}

// TestDeadlineClassifies504 checks the deadline path end to end: a slow
// execute (fault-injected chunk delay) against a short client deadline
// answers 504 deadline_exceeded, and the serve.deadline_exceeded counter
// moves.
func TestDeadlineClassifies504(t *testing.T) {
	reg := telemetry.New()
	s, c := startServer(t, Config{Threads: 2, Registry: reg})
	// Warm the compile outside the fault window.
	if _, err := c.Compile(context.Background(), triRequest(400)); err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	restore := faults.Activate(&faults.Plan{ChunkDelay: 5 * time.Millisecond})
	defer restore()

	c.Deadline = 30 * time.Millisecond // ?deadline_ms=30
	req := triRequest(400)
	req.Schedule = "dynamic,64"
	_, err := c.Execute(context.Background(), req)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGatewayTimeout || ae.Class != "deadline_exceeded" {
		t.Fatalf("slow execute err = %v, want 504 deadline_exceeded", err)
	}
	if n := reg.Counter("serve.deadline_exceeded").Value(); n == 0 {
		t.Fatalf("serve.deadline_exceeded did not move")
	}
	_ = s
}

// TestPanicIsolationKeepsTeamUsable is the robustness acceptance for
// worker panics: a panic injected into a served execute answers 500
// (never kills the process), and the very next request — on the same
// daemon, same engine — succeeds.
func TestPanicIsolationKeepsTeamUsable(t *testing.T) {
	reg := telemetry.New()
	_, c := startServer(t, Config{Threads: 2, Registry: reg})
	ctx := context.Background()
	const N = 40
	tuples, checksum := triEnum(t, N)
	if _, err := c.Compile(ctx, triRequest(N)); err != nil {
		t.Fatalf("warm compile: %v", err)
	}

	restore := faults.Activate(&faults.Plan{
		OnChunk: func(tid int, clo, chi int64) error {
			panic("injected worker panic")
		},
	})
	req := triRequest(N)
	req.Schedule = "dynamic,16"
	_, err := c.Execute(ctx, req)
	restore()
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError || ae.Class != "panic" {
		t.Fatalf("panicked execute err = %v, want 500 panic", err)
	}
	if n := reg.Counter("serve.panics").Value(); n == 0 {
		t.Fatalf("serve.panics did not move")
	}

	// The team survived: same daemon answers the same request correctly.
	ex, err := c.Execute(ctx, req)
	if err != nil {
		t.Fatalf("execute after isolated panic: %v", err)
	}
	if ex.Iterations != int64(len(tuples)) || ex.Checksum != checksum {
		t.Fatalf("post-panic execute = %d/%d, want %d/%d",
			ex.Iterations, ex.Checksum, len(tuples), checksum)
	}
}

// TestCompileFailureMemoized drives a deterministically failing compile
// (root perturbation active during candidate selection →
// ErrNoConvenientRoot, a Collapsible error) in three spellings of one
// shape and checks the shape compiles exactly once: every answer is the
// 422 no_convenient_root, also after the fault clears, because the
// collapse cache answers from its memo of the error. A different shape
// still compiles.
func TestCompileFailureMemoized(t *testing.T) {
	s, c := startServer(t, Config{})
	ctx := context.Background()
	restore := faults.Activate(&faults.Plan{
		PerturbRoot: func(level int, x complex128) complex128 { return x + 1000 },
	})
	for name, req := range spellings(30) {
		for i := 0; i < 3; i++ {
			var ae *APIError
			_, err := c.Compile(ctx, req)
			if !errors.As(err, &ae) || ae.Status != http.StatusUnprocessableEntity ||
				ae.Class != "no_convenient_root" {
				restore()
				t.Fatalf("%s compile %d: err = %v, want 422 no_convenient_root", name, i, err)
			}
		}
	}
	restore()
	if st := s.Cache().Stats(); st.Misses != 1 || st.Entries != 1 || st.Hits != 8 {
		t.Fatalf("cache %v, want 1 miss, 1 entry and 8 hits for 9 requests", st)
	}
	// The fault is gone, but the shape's outcome is memoized: the compile
	// pipeline does not run again while the entry is resident.
	for name, req := range spellings(30) {
		var ae *APIError
		if _, err := c.Compile(ctx, req); !errors.As(err, &ae) || ae.Class != "no_convenient_root" {
			t.Fatalf("%s after the fault cleared: err = %v, want the memoized no_convenient_root", name, err)
		}
	}
	if st := s.Cache().Stats(); st.Misses != 1 {
		t.Fatalf("memoized shape compiled again: %v", st)
	}

	// A different shape is unaffected by this shape's memo.
	if _, err := c.Compile(ctx, &Request{Nest: &NestSpec{Loops: []LoopSpec{
		{Index: "a", Lower: "0", Upper: "M"},
		{Index: "b", Lower: "0", Upper: "a + 1"},
	}}, Params: map[string]int64{"M": 10}}); err != nil {
		t.Fatalf("unrelated shape rejected: %v", err)
	}
	if st := s.Cache().Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after an unrelated shape: cache %v, want 2 misses, 2 entries", st)
	}
}

// TestCompilePanicNotMemoized checks that a transient compile failure (a
// panic inside root selection) is answered 500 panic and not stored: once
// the fault is gone the same request compiles, answers 200, and its
// artifact is cached.
func TestCompilePanicNotMemoized(t *testing.T) {
	s, c := startServer(t, Config{})
	ctx := context.Background()
	restore := faults.Activate(&faults.Plan{
		PerturbRoot: func(level int, x complex128) complex128 { panic("injected compile panic") },
	})
	var ae *APIError
	_, err := c.Compile(ctx, triRequest(30))
	restore()
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError || ae.Class != "panic" {
		t.Fatalf("panicking compile: err = %v, want 500 panic", err)
	}
	if st := s.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("panicking compile stored an outcome: %v", st)
	}
	comp, err := c.Compile(ctx, triRequest(30))
	if err != nil {
		t.Fatalf("compile after the panic hook was removed: %v", err)
	}
	if comp.Cached {
		t.Fatal("first good compile reported as cached")
	}
	comp, err = c.Compile(ctx, spellings(30)["renamed"])
	if err != nil || !comp.Cached {
		t.Fatalf("renamed repeat: cached = %v, err = %v; want a cache hit", comp != nil && comp.Cached, err)
	}
	if st := s.Cache().Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("cache %v, want 2 misses (panic, good compile) and 1 entry", st)
	}
}

// TestDegradeLadder checks the load-derived tiers: with the semaphore
// mostly occupied, codegen sheds with 429 and execute degrades to the
// uncollapsed fallback — still answering correctly.
func TestDegradeLadder(t *testing.T) {
	reg := telemetry.New()
	s, c := startServer(t, Config{Threads: 2, MaxInflight: 4, Registry: reg})
	ctx := context.Background()
	const N = 30
	tuples, checksum := triEnum(t, N)
	if _, err := c.Compile(ctx, triRequest(N)); err != nil {
		t.Fatalf("warm compile: %v", err)
	}

	// Occupy 3 of 4 slots: load 0.75 ≥ forceFallbackLoad.
	for i := 0; i < 3; i++ {
		s.sem <- struct{}{}
		s.inflight.Add(1)
	}
	defer func() {
		for i := 0; i < 3; i++ {
			<-s.sem
			s.inflight.Add(-1)
		}
	}()
	if tier := s.Tier(); tier != TierForceFallback {
		t.Fatalf("tier at 0.75 load = %v, want force-fallback", tier)
	}

	_, err := c.Codegen(ctx, triRequest(N))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("codegen under load: err = %v, want 429", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("shed codegen carries no Retry-After hint")
	}
	if n := reg.Counter("serve.shed_codegen").Value(); n == 0 {
		t.Fatalf("serve.shed_codegen did not move")
	}

	req := triRequest(N)
	ex, err := c.Execute(ctx, req)
	if err != nil {
		t.Fatalf("execute under load: %v", err)
	}
	if !ex.Degraded || ex.Collapsed {
		t.Fatalf("execute at force-fallback tier: %+v, want degraded uncollapsed", ex)
	}
	if ex.Iterations != int64(len(tuples)) || ex.Checksum != checksum {
		t.Fatalf("degraded execute = %d/%d, want %d/%d",
			ex.Iterations, ex.Checksum, len(tuples), checksum)
	}

	// /healthz reports unavailable at this tier.
	ready, doc, err := c.Healthz(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if ready {
		t.Fatalf("healthz ready at force-fallback tier: %v", doc)
	}
}

// TestSemaphoreFullSheds429 fills every slot and checks full-capacity
// rejection (with a hint) rather than queueing or failure.
func TestSemaphoreFullSheds429(t *testing.T) {
	s, c := startServer(t, Config{MaxInflight: 2})
	for i := 0; i < 2; i++ {
		s.sem <- struct{}{}
		s.inflight.Add(1)
	}
	defer func() {
		for i := 0; i < 2; i++ {
			<-s.sem
			s.inflight.Add(-1)
		}
	}()
	_, err := c.Count(context.Background(), triRequest(10))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("err at full capacity = %v, want 429", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("capacity rejection carries no Retry-After hint")
	}
}

// TestRateLimitSheds429WithRefillHint exhausts the token bucket and
// checks the 429 carries the refill-derived hint.
func TestRateLimitSheds429WithRefillHint(t *testing.T) {
	_, c := startServer(t, Config{RatePerSec: 1, Burst: 1})
	ctx := context.Background()
	if _, err := c.Count(ctx, triRequest(10)); err != nil {
		t.Fatalf("first request within burst: %v", err)
	}
	_, err := c.Count(ctx, triRequest(10))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("err past burst = %v, want 429", err)
	}
	// Rate 1/s, empty bucket: the hint is ~1s stretched by at most 25%.
	if ae.RetryAfter < 500*time.Millisecond || ae.RetryAfter > 1500*time.Millisecond {
		t.Fatalf("refill hint %v implausible for rate 1/s", ae.RetryAfter)
	}
}

// TestGracefulShutdownDrains starts a slow request, shuts down mid-
// flight, and checks: the in-flight answer completes OK, new requests
// are refused with 503 shutting_down, and Shutdown returns cleanly.
func TestGracefulShutdownDrains(t *testing.T) {
	s, c := startServer(t, Config{Threads: 2})
	ctx := context.Background()
	const N = 60
	tuples, _ := triEnum(t, N)
	if _, err := c.Compile(ctx, triRequest(N)); err != nil {
		t.Fatalf("warm compile: %v", err)
	}

	restore := faults.Activate(&faults.Plan{ChunkDelay: 2 * time.Millisecond})
	defer restore()

	var wg sync.WaitGroup
	var slowErr error
	var slowResp *ExecuteResponse
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := triRequest(N)
		req.Schedule = "dynamic,32"
		close(started)
		slowResp, slowErr = c.Execute(ctx, req)
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the request get in flight

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	wg.Wait()
	if slowErr != nil {
		t.Fatalf("in-flight request dropped during drain: %v", slowErr)
	}
	if slowResp.Iterations != int64(len(tuples)) {
		t.Fatalf("drained request answered %d iterations, want %d",
			slowResp.Iterations, len(tuples))
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Post-drain: the daemon is gone (connection refused) or still
	// answering 503 — never a 200.
	if _, err := c.Count(ctx, triRequest(10)); err == nil {
		t.Fatalf("request succeeded after drain")
	}
}

// TestCountBeyondInt64AnswersBig checks the graceful big-total path: a
// domain past the int64 pc range still gets its exact cardinality, on
// the first request and on a repeat served from the request table.
func TestCountBeyondInt64AnswersBig(t *testing.T) {
	_, c := startServer(t, Config{})
	req := &Request{
		Nest: &NestSpec{Loops: []LoopSpec{
			{Index: "i", Lower: "0", Upper: "N"},
			{Index: "j", Lower: "0", Upper: "N"},
			{Index: "k", Lower: "0", Upper: "N"},
		}},
		Params: map[string]int64{"N": 3_000_000},
	}
	for i := 0; i < 2; i++ {
		cnt, err := c.Count(context.Background(), req)
		if err != nil {
			t.Fatalf("big count %d: %v", i, err)
		}
		if cnt.Total != 0 || cnt.TotalBig != "27000000000000000000" {
			t.Fatalf("big count %d = %+v, want TotalBig 2.7e19", i, cnt)
		}
	}
}
