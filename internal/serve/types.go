// Package serve is the collapse-as-a-service layer: a hardened HTTP/JSON
// daemon over the collapsing library. It accepts loop nests — either as
// mini-C fragments (the collapsetool front end) or as structured JSON —
// and answers compile/count/rank/unrank/codegen/execute queries, compiling
// through a process-wide CollapseCache, answering repeated requests from
// a request-keyed table of compiled and bound nests, and executing on the
// bind-once/clone-per-worker engine.
//
// The robustness core is the request lifecycle manager documented in
// DESIGN.md: token-bucket admission control (429 + Retry-After hints
// derived from the refill state), a bounded concurrent-request semaphore,
// per-request deadlines propagated into the context-aware runtime,
// per-request panic isolation onto the internal/faults taxonomy,
// compile failures memoized per core.Key (a shape that fails
// with an applicability error compiles once), and graceful degradation
// tiers under load (shed codegen first, then force the uncollapsed
// fallback, then shed). Graceful shutdown drains in-flight requests via
// http.Server.Shutdown.
package serve

import (
	"fmt"
	"strings"

	"repro/internal/cparse"
	"repro/internal/nest"
	"repro/internal/poly"
)

// LoopSpec is one loop level of a structured nest request. Bounds are
// affine expressions over outer iterators and free parameters
// (lower <= index < upper, upper exclusive).
type LoopSpec struct {
	Index string `json:"index"`
	Lower string `json:"lower"`
	Upper string `json:"upper"`
}

// NestSpec is a structured loop nest. When Params is empty, the free
// identifiers of the bound expressions become the parameters (sorted,
// nest.FreeParams), as in the rankq and mini-C front ends.
type NestSpec struct {
	Params []string   `json:"params,omitempty"`
	Loops  []LoopSpec `json:"loops"`
}

// Request is the JSON body accepted by every /v1 endpoint. A nest is
// given either as mini-C source with an OpenMP collapse pragma (Src) or
// structured (Nest); exactly one must be present. The remaining fields
// parameterize the individual operations and are ignored where they do
// not apply.
type Request struct {
	// Src is a mini-C fragment with "#pragma omp ... collapse(c)".
	Src string `json:"src,omitempty"`
	// Nest is the structured alternative to Src.
	Nest *NestSpec `json:"nest,omitempty"`
	// Collapse is the number of outermost loops to collapse. Default:
	// the pragma's collapse count for Src, the full depth for Nest.
	Collapse int `json:"collapse,omitempty"`
	// Params binds size parameters for count/rank/unrank/execute.
	Params map[string]int64 `json:"params,omitempty"`

	// Index is the iteration tuple for rank (length = nest depth).
	Index []int64 `json:"index,omitempty"`
	// Pc is the 1-based collapsed rank for unrank.
	Pc int64 `json:"pc,omitempty"`

	// Scheme selects the codegen recovery scheme
	// (per-iteration|first-iteration|chunked|simd|warp) and Language the
	// output language ("c" default, "go").
	Scheme   string `json:"scheme,omitempty"`
	Language string `json:"language,omitempty"`
	Chunk    int    `json:"chunk,omitempty"`
	VLength  int    `json:"vlength,omitempty"`
	Warp     int    `json:"warp,omitempty"`

	// Threads and Schedule shape the execute run ("static",
	// "dynamic,16", "auto", ...); codegen writes Schedule into the
	// emitted pragma. A Schedule outside the omp.ParseSchedule grammar
	// answers 400. Threads defaults to the server's team size.
	Threads  int    `json:"threads,omitempty"`
	Schedule string `json:"schedule,omitempty"`
	// Shards > 0 selects the fault-tolerant sharded execute engine
	// (internal/dist): the collapsed pc-range is split into this many
	// shards, a worker panic costs one shard attempt (retried) instead
	// of the request, and the answer carries the recovery ledger.
	// Ignored when the nest is not collapsible or the server is in the
	// force-fallback degradation tier.
	Shards int `json:"shards,omitempty"`
}

// CompileResponse answers /v1/compile.
type CompileResponse struct {
	Collapse int      `json:"collapse"`
	Ranking  string   `json:"ranking"`
	Total    string   `json:"total"`
	Roots    []string `json:"roots,omitempty"`
	// Cached reports whether the artifact came from the process-wide
	// collapse cache.
	Cached bool `json:"cached"`
}

// CountResponse answers /v1/count. Total is 0 with TotalBig carrying the
// exact decimal count when it exceeds int64 (the daemon still answers —
// only unranking needs the pc range to fit).
type CountResponse struct {
	Total    int64  `json:"total"`
	TotalBig string `json:"total_big,omitempty"`
}

// RankResponse answers /v1/rank.
type RankResponse struct {
	Pc int64 `json:"pc"`
}

// UnrankResponse answers /v1/unrank.
type UnrankResponse struct {
	Index []int64 `json:"index"`
}

// CodegenResponse answers /v1/codegen.
type CodegenResponse struct {
	Language string `json:"language"`
	Code     string `json:"code"`
}

// ExecuteResponse answers /v1/execute: the nest ran to completion on the
// parallel runtime with a checksumming body, so correctness is externally
// verifiable (Checksum is the order-independent sum of tuple hashes).
type ExecuteResponse struct {
	Iterations int64  `json:"iterations"`
	Checksum   uint64 `json:"checksum"`
	// Collapsed reports which engine ran: the collapsed schedule or the
	// uncollapsed outer-loop fallback (inapplicable nest, or the server
	// forced the fallback under load — see Degraded).
	Collapsed bool `json:"collapsed"`
	// Degraded is true when the overload ladder forced the fallback.
	Degraded bool `json:"degraded"`
	Threads  int  `json:"threads"`

	// Sharded reports the run used the fault-tolerant shard coordinator
	// (Request.Shards > 0 on a collapsible nest); Shards is the planned
	// shard count and ShardRetries its recovery ledger: shard attempts
	// retried after failures (including isolated worker panics).
	Sharded      bool  `json:"sharded,omitempty"`
	Shards       int   `json:"shards,omitempty"`
	ShardRetries int64 `json:"shard_retries,omitempty"`

	// Tuned reports the request ran under schedule "auto": the server's
	// autotuner picked Schedule (rendered as a -sched spec plus team
	// size), predicted PredictedMs by simulation against the measured
	// cost model, and measured ActualMs; Threads is the chosen team size.
	Tuned       bool    `json:"tuned,omitempty"`
	Schedule    string  `json:"schedule,omitempty"`
	PredictedMs float64 `json:"predicted_ms,omitempty"`
	ActualMs    float64 `json:"actual_ms,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Class is the machine-readable failure class (the faults taxonomy
	// plus the service-level classes): bad_request, non_affine,
	// degree_too_high, overflow, no_convenient_root, recovery_diverged,
	// deadline_exceeded, canceled, panic, overloaded, shutting_down,
	// internal.
	Class string `json:"class"`
	// RetryAfterS echoes the Retry-After hint in seconds for 429/503
	// answers, so JSON-only clients need not parse headers.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// buildNest materializes the request's nest and collapse count.
func buildNest(req *Request) (*nest.Nest, int, error) {
	switch {
	case req.Src != "" && req.Nest != nil:
		return nil, 0, fmt.Errorf("give src or nest, not both")
	case req.Src != "":
		prog, err := cparse.Parse(req.Src)
		if err != nil {
			return nil, 0, err
		}
		c := prog.CollapseCount
		if req.Collapse != 0 {
			c = req.Collapse
		}
		if c < 1 || c > prog.Nest.Depth() {
			return nil, 0, fmt.Errorf("collapse %d out of range [1,%d]", c, prog.Nest.Depth())
		}
		return prog.Nest, c, nil
	case req.Nest != nil:
		n, err := buildStructured(req.Nest)
		if err != nil {
			return nil, 0, err
		}
		c := n.Depth()
		if req.Collapse != 0 {
			c = req.Collapse
		}
		if c < 1 || c > n.Depth() {
			return nil, 0, fmt.Errorf("collapse %d out of range [1,%d]", c, n.Depth())
		}
		return n, c, nil
	default:
		return nil, 0, fmt.Errorf("missing nest: give src or nest")
	}
}

// buildStructured validates a NestSpec into a nest, inferring parameters
// from free identifiers when the spec leaves them out.
func buildStructured(spec *NestSpec) (*nest.Nest, error) {
	if len(spec.Loops) == 0 {
		return nil, fmt.Errorf("nest has no loops")
	}
	loops := make([]nest.Loop, 0, len(spec.Loops))
	for _, ls := range spec.Loops {
		idx := strings.TrimSpace(ls.Index)
		if idx == "" {
			return nil, fmt.Errorf("loop with empty index")
		}
		lo, err := poly.Parse(ls.Lower)
		if err != nil {
			return nil, fmt.Errorf("loop %s lower %q: %w", idx, ls.Lower, err)
		}
		hi, err := poly.Parse(ls.Upper)
		if err != nil {
			return nil, fmt.Errorf("loop %s upper %q: %w", idx, ls.Upper, err)
		}
		loops = append(loops, nest.Loop{Index: idx, Lower: lo, Upper: hi})
	}
	params := spec.Params
	if len(params) == 0 {
		params = nest.FreeParams(loops)
	}
	return nest.New(params, loops...)
}
