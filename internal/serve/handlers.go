package serve

import (
	"context"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/autotune"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/roots"
	"repro/internal/unrank"
)

// compileFor compiles (or cache-hits) the collapsed form of the c
// outermost loops, with the circuit breaker in front: a shape whose
// circuit is open fast-fails with the recorded error, and every compile
// outcome feeds back into the breaker. Transient (non-applicability)
// failures never trip a circuit — only deterministic Collapsible errors
// do, because those are the ones guaranteed to recur for the same shape.
func (s *Server) compileFor(n *nest.Nest, c int) (*core.Result, bool, error) {
	opts := unrank.Options{Telemetry: s.reg}
	sig, ok := core.NestSignature(n, c, opts)
	if !ok {
		res, err := core.Collapse(n, c, opts)
		return res, false, err
	}
	if err := s.breaker.admit(sig); err != nil {
		return nil, false, err
	}
	res, cached, err := core.CollapseSigned(s.cache, sig, n, c, opts)
	switch {
	case err == nil:
		s.breaker.record(sig, false, nil)
	case faults.Collapsible(err):
		s.breaker.record(sig, true, err)
	default:
		s.breaker.clearProbe(sig)
	}
	return res, cached, err
}

func (s *Server) handleCompile(ctx context.Context, req *Request) (any, error) {
	e, cached, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	res := e.res
	out := &CompileResponse{
		Collapse: e.c,
		Ranking:  res.Ranking.String(),
		Total:    res.Total.String(),
		Cached:   cached,
	}
	for k := 0; k < res.C-1; k++ {
		out.Roots = append(out.Roots, roots.String(res.Unranker.RootExpr(k)))
	}
	return out, nil
}

func (s *Server) handleCount(ctx context.Context, req *Request) (any, error) {
	e, _, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	if b := e.bound; b != nil {
		return &CountResponse{Total: b.Total(), TotalBig: b.TotalBig().String()}, nil
	}
	// A domain beyond the int64 pc range still has an exact cardinality:
	// answer from the counting polynomial over big.Rat, like rankq does.
	if faults.Collapsible(e.bindErr) {
		env := make(map[string]*big.Rat, len(req.Params))
		for name, v := range req.Params {
			env[name] = new(big.Rat).SetInt64(v)
		}
		if r, perr := e.res.Unranker.Count().EvalRat(env); perr == nil {
			q := new(big.Int).Quo(r.Num(), r.Denom())
			return &CountResponse{TotalBig: q.String()}, nil
		}
	}
	return nil, e.bindErr
}

func (s *Server) handleRank(ctx context.Context, req *Request) (any, error) {
	e, _, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	b, err := e.clone()
	if err != nil {
		return nil, err
	}
	if len(req.Index) != e.res.C {
		return nil, badRequest("rank wants %d indices, got %d", e.res.C, len(req.Index))
	}
	if !b.Instance().Contains(req.Index) {
		return nil, badRequest("%v is not in the iteration domain", req.Index)
	}
	return &RankResponse{Pc: b.Rank(req.Index)}, nil
}

func (s *Server) handleUnrank(ctx context.Context, req *Request) (any, error) {
	e, _, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	b, err := e.clone()
	if err != nil {
		return nil, err
	}
	if req.Pc < 1 || req.Pc > b.Total() {
		return nil, badRequest("pc = %d out of range 1..%d", req.Pc, b.Total())
	}
	idx := make([]int64, e.res.C)
	if err := b.Unrank(req.Pc, idx); err != nil {
		return nil, err
	}
	return &UnrankResponse{Index: idx}, nil
}

func (s *Server) handleCodegen(ctx context.Context, req *Request) (any, error) {
	e, _, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	res := e.res
	var sch codegen.Scheme
	switch req.Scheme {
	case "", "first-iteration":
		sch = codegen.FirstIteration
	case "per-iteration":
		sch = codegen.PerIteration
	case "chunked":
		sch = codegen.Chunked
	case "simd":
		sch = codegen.SIMD
	case "warp":
		sch = codegen.Warp
	default:
		return nil, badRequest("unknown scheme %q", req.Scheme)
	}
	opts := codegen.Options{
		Scheme:   sch,
		Schedule: req.Schedule,
		Chunk:    req.Chunk,
		VLength:  req.VLength,
		Warp:     req.Warp,
	}
	lang := req.Language
	var code string
	switch lang {
	case "", "c":
		lang = "c"
		code, err = codegen.EmitC(res, opts)
	case "go":
		if sch != codegen.PerIteration && sch != codegen.FirstIteration {
			opts.Scheme = codegen.FirstIteration
		}
		code, err = codegen.EmitGo(res, opts)
	default:
		return nil, badRequest("unknown language %q", req.Language)
	}
	if err != nil {
		return nil, err
	}
	return &CodegenResponse{Language: lang, Code: code}, nil
}

// handleExecute runs the nest on the parallel runtime with a
// checksumming body (bind-once/clone-per-worker engine underneath), the
// request deadline propagated to every chunk boundary. Under
// TierForceFallback the compile step is skipped entirely and the nest
// runs uncollapsed — correct, cheaper to start, merely unbalanced; a
// request-table hit still spares it the parse.
func (s *Server) handleExecute(ctx context.Context, req *Request) (any, error) {
	key := requestKey(req)
	e, hit := s.table.get(key)
	var (
		n   *nest.Nest
		c   int
		err error
	)
	if hit {
		n, c = e.n, e.c
	} else if n, c, err = buildNest(req); err != nil {
		return nil, badRequest("%v", err)
	}
	threads := req.Threads
	if threads <= 0 || threads > s.cfg.Threads {
		threads = s.cfg.Threads
	}
	sched := parseScheduleSpec(req.Schedule)
	// The autotuner may pick any team size up to the server cap, so the
	// accumulator array is sized for the cap on the tuned path.
	accums := threads
	if sched.Kind == omp.ScheduleAuto && accums < s.cfg.Threads {
		accums = s.cfg.Threads
	}
	sums := make([]executeAccum, accums)
	body := func(tid int, idx []int64) {
		sums[tid].count++
		sums[tid].sum += TupleHash(idx)
	}

	out := &ExecuteResponse{Threads: threads}
	if tierFrom(ctx) >= TierForceFallback {
		out.Degraded = true
		s.reg.Counter("serve.forced_fallback").Inc()
		err = runUncollapsed(ctx, n, c, req.Params, threads, sched, body)
	} else {
		if !hit {
			e, _, err = s.compileEntry(key, n, c, req.Params)
		}
		switch {
		case err == nil && req.Shards > 0:
			// Sharded engine: the collapsed pc-range runs under the
			// fault-tolerant coordinator, so a worker panic costs one shard
			// attempt (retried, then split, then re-run uncollapsed) instead
			// of the whole request.
			return s.executeSharded(ctx, e.res, req, threads)
		case err == nil && sched.Kind == omp.ScheduleAuto:
			// Tuned path: the planner picks (schedule, chunk, workers) by
			// simulation against the measured work vector, cached per
			// shape × params bucket × cores, refined from the observed
			// makespan.
			out.Collapsed = true
			var run autotune.Run
			run, err = s.tuner.CollapsedFor(ctx, e.res, req.Params, body)
			if err == nil {
				out.Tuned = true
				out.Schedule = run.Plan.Decision.String()
				out.PredictedMs = run.Plan.Decision.PredictedSec * 1e3
				out.ActualMs = run.Actual.Seconds() * 1e3
				out.Threads = run.Plan.Decision.Workers
			}
		case err == nil:
			out.Collapsed = true
			err = omp.CollapsedForCtx(ctx, e.res, req.Params, threads, sched, body)
		case faults.Collapsible(err):
			// The nest is outside the technique: downgrade to plain
			// worksharing rather than failing the request.
			s.reg.Counter("serve.downgrades").Inc()
			err = runUncollapsed(ctx, n, c, req.Params, threads, sched, body)
		}
	}
	if err != nil {
		return nil, err
	}
	for i := range sums {
		out.Iterations += sums[i].count
		out.Checksum += sums[i].sum
	}
	return out, nil
}

// executeSharded answers a /v1/execute with Shards > 0: the compiled
// pc-range runs under the internal/dist coordinator with leases,
// retry/split/fallback degradation, and exactly-once commit — a worker
// panic inside one shard is retried there instead of failing the
// request. The checksum is identical to the unsharded engine's
// (order-independent TupleHash sum), so clients verify sharded answers
// against the same oracle.
func (s *Server) executeSharded(ctx context.Context, res *core.Result, req *Request, threads int) (any, error) {
	rep, err := dist.Run(ctx, res, req.Params, dist.Config{
		Workers:       threads,
		Shards:        req.Shards,
		AllowFallback: true,
		Registry:      s.reg,
		Logf:          s.cfg.Logf,
	}, func(worker int, pc int64, idx []int64) uint64 {
		return TupleHash(idx)
	})
	if err != nil {
		return nil, err
	}
	return &ExecuteResponse{
		Iterations:      rep.Executed + rep.Resumed,
		Checksum:        rep.Sum,
		Collapsed:       !rep.FellBack,
		Threads:         threads,
		Sharded:         true,
		Shards:          rep.PlannedShards,
		ShardRetries:    rep.Retries,
		LeaseExpiries:   rep.LeaseExpiries,
		DuplicateShards: rep.Duplicates,
	}, nil
}

// executeAccum is one worker's checksum cell, padded to its own cache
// line so the per-iteration body does not false-share.
type executeAccum struct {
	count int64
	sum   uint64
	_     [6]uint64
}

// runUncollapsed worksharing-runs the c outermost loops of n (the
// self-contained prefix, as in nonrect.CollapsedForAuto).
func runUncollapsed(ctx context.Context, n *nest.Nest, c int, params map[string]int64,
	threads int, sched omp.Schedule, body func(tid int, idx []int64)) error {
	sub := &nest.Nest{Params: n.Params, Loops: n.Loops[:c]}
	return omp.UncollapsedFor(ctx, sub, params, threads, sched, body)
}

// TupleHash is an order-independent-summable tuple fingerprint (FNV-1a
// over the index values): equal multisets of tuples — and only
// plausibly those — sum to equal checksums. ExecuteResponse.Checksum is
// the sum of TupleHash over every visited tuple, so a client holding the
// sequential enumeration can verify an execute run exactly.
func TupleHash(idx []int64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range idx {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// parseScheduleSpec maps "static" / "static,64" / "dynamic,16" /
// "guided" / "auto" to a runtime schedule (defaulting to static), the
// same grammar as the OpenMP pragma's schedule clause. "auto" delegates
// the (schedule, chunk, workers) choice to the server's autotuner.
func parseScheduleSpec(clause string) omp.Schedule {
	kind, arg, _ := strings.Cut(clause, ",")
	sch := omp.Schedule{Kind: omp.Static}
	switch strings.TrimSpace(kind) {
	case "dynamic":
		sch.Kind = omp.Dynamic
	case "guided":
		sch.Kind = omp.Guided
	case "auto":
		sch.Kind = omp.ScheduleAuto
	case "static", "":
	}
	if n, err := strconv.ParseInt(strings.TrimSpace(arg), 10, 64); err == nil && n > 0 {
		sch.Chunk = n
		if sch.Kind == omp.Static {
			sch.Kind = omp.StaticChunk
		}
	}
	return sch
}
