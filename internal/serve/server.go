package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/omp"
	"repro/internal/telemetry"
)

// DegradeTier is the graceful-degradation ladder position, derived from
// the in-flight load fraction. Under rising load the daemon sheds the
// cheapest-to-refuse work first: codegen (pure luxury under pressure),
// then the collapsed engine itself (execute requests run the uncollapsed
// fallback, skipping compile work), and finally — when the semaphore is
// exhausted — everything, with 429 + Retry-After.
type DegradeTier int

const (
	// TierNormal serves everything.
	TierNormal DegradeTier = iota
	// TierShedCodegen rejects codegen requests with 429.
	TierShedCodegen
	// TierForceFallback additionally forces /v1/execute down the
	// uncollapsed worksharing path (no compile cost, no balance
	// guarantee — the request still completes correctly).
	TierForceFallback
)

// String names the tier for /healthz and logs.
func (t DegradeTier) String() string {
	switch t {
	case TierNormal:
		return "normal"
	case TierShedCodegen:
		return "shed-codegen"
	case TierForceFallback:
		return "force-fallback"
	}
	return fmt.Sprintf("DegradeTier(%d)", int(t))
}

// Config shapes a Server. The zero value of every field selects a
// sensible default (see the field comments).
type Config struct {
	// Threads is the worker-team size for /v1/execute (default
	// GOMAXPROCS).
	Threads int
	// MaxInflight bounds concurrently executing requests (default 64).
	MaxInflight int
	// RatePerSec and Burst parameterize token-bucket admission.
	// RatePerSec <= 0 disables admission control. Burst defaults to
	// 2*RatePerSec (min 1).
	RatePerSec float64
	Burst      float64
	// DefaultDeadline is the server-enforced per-request deadline
	// (default 5s); MaxDeadline caps client ?deadline_ms= requests
	// (default 30s). A non-positive MaxDeadline disables the cap.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// ShutdownTimeout bounds the graceful drain (default 10s).
	ShutdownTimeout time.Duration
	// CacheCapacity sizes the process-wide CollapseCache, which also
	// memoizes each failing shape's applicability error, and the
	// request table in front of it (default 256 entries each).
	CacheCapacity int
	// Registry receives the serve_* metric families; a fresh registry is
	// created when nil.
	Registry *telemetry.Registry
	// Logf sinks request-failure logs (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Threads <= 0 {
		c.Threads = omp.DefaultThreads()
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.RatePerSec
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 256
	}
	if c.Registry == nil {
		c.Registry = telemetry.New()
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Server is the collapse daemon: the /v1 API endpoints wrapped in the
// request lifecycle manager, with the observability plane mounted beside
// them. Construct with New, serve with Serve (or mount Handler), stop
// with Shutdown.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	cache  *core.CollapseCache
	table  *requestTable
	bucket *tokenBucket
	sem    chan struct{}
	plane  *obs.Plane
	tuner  *autotune.Tuner

	mux      *http.ServeMux
	httpSrv  *http.Server
	ln       net.Listener
	draining atomic.Bool
	inflight atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg.fill()
	// A daemon lives indefinitely: keep the span trace bounded by routing
	// it through a flight-recorder ring (unless the caller attached one).
	if cfg.Registry.Flight() == nil {
		cfg.Registry.EnableFlight(4096, false)
	}
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		cache:  core.NewCollapseCache(cfg.CacheCapacity),
		table:  newRequestTable(cfg.CacheCapacity),
		bucket: newTokenBucket(cfg.RatePerSec, cfg.Burst),
		sem:    make(chan struct{}, cfg.MaxInflight),
		plane:  obs.NewPlane(cfg.Registry),
	}
	// The autotuner shares the server's telemetry and never exceeds the
	// serving thread cap.
	s.tuner = autotune.New(autotune.Options{
		Registry:   cfg.Registry,
		MaxWorkers: cfg.Threads,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.lifecycle("compile", s.handleCompile))
	mux.HandleFunc("POST /v1/count", s.lifecycle("count", s.handleCount))
	mux.HandleFunc("POST /v1/rank", s.lifecycle("rank", s.handleRank))
	mux.HandleFunc("POST /v1/unrank", s.lifecycle("unrank", s.handleUnrank))
	mux.HandleFunc("POST /v1/codegen", s.lifecycle("codegen", s.handleCodegen))
	mux.HandleFunc("POST /v1/execute", s.lifecycle("execute", s.handleExecute))
	mux.HandleFunc("/healthz", s.handleHealthz)
	// Everything else — /metrics, /snapshot, /trace, /debug/pprof, the
	// index — is the observability plane.
	mux.Handle("/", s.plane.Handler())
	s.mux = mux
	return s
}

// Registry returns the server's telemetry registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Cache returns the process-wide collapse cache.
func (s *Server) Cache() *core.CollapseCache { return s.cache }

// Handler returns the daemon's full mux (API + observability plane),
// usable with httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// shedCodegenLoad and forceFallbackLoad are the in-flight load
// fractions at which the degradation ladder advances.
const (
	shedCodegenLoad   = 0.5
	forceFallbackLoad = 0.75
)

// loadFraction is the in-flight occupancy of the request semaphore.
func (s *Server) loadFraction() float64 {
	return float64(s.inflight.Load()) / float64(s.cfg.MaxInflight)
}

// Tier reports the current degradation-ladder position.
func (s *Server) Tier() DegradeTier {
	f := s.loadFraction()
	switch {
	case f >= forceFallbackLoad:
		return TierForceFallback
	case f >= shedCodegenLoad:
		return TierShedCodegen
	}
	return TierNormal
}

// handlerFunc is an endpoint body: it returns the response document or
// an error the lifecycle maps onto an HTTP status.
type handlerFunc func(ctx context.Context, req *Request) (any, error)

// lifecycle wraps an endpoint with the full request lifecycle:
// drain guard → token-bucket admission → semaphore → degradation shed →
// deadline → panic isolation → execute → classify/respond. Every
// decision increments a serve.* counter so the ladder is observable.
func (s *Server) lifecycle(endpoint string, h handlerFunc) http.HandlerFunc {
	lat := s.reg.Histogram("serve.latency_seconds{endpoint="+endpoint+"}", nil)
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.reg.Counter("serve.rejected").Inc()
			writeError(w, http.StatusServiceUnavailable, "shutting_down",
				errors.New("server is draining"), time.Second)
			return
		}
		if ok, retry := s.bucket.take(); !ok {
			s.reg.Counter("serve.rejected").Inc()
			s.reg.Counter("serve.rejected_ratelimit").Inc()
			writeError(w, http.StatusTooManyRequests, "overloaded",
				errors.New("admission control: rate limit exceeded"), retry)
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.reg.Counter("serve.rejected").Inc()
			s.reg.Counter("serve.rejected_capacity").Inc()
			// The bucket is not the bottleneck here; hint one full
			// average service time via the refill estimator's floor.
			writeError(w, http.StatusTooManyRequests, "overloaded",
				errors.New("admission control: all request slots busy"),
				retryAfterHint(0, maxf(s.cfg.RatePerSec, 1), s.bucket.jitter()))
			return
		}
		s.reg.Gauge("serve.inflight").Set(s.inflight.Add(1))
		defer func() {
			s.reg.Gauge("serve.inflight").Set(s.inflight.Add(-1))
			<-s.sem
		}()

		tier := s.Tier()
		if endpoint == "codegen" && tier >= TierShedCodegen {
			s.reg.Counter("serve.shed").Inc()
			s.reg.Counter("serve.shed_codegen").Inc()
			writeError(w, http.StatusTooManyRequests, "overloaded",
				errors.New("shedding codegen under load"),
				retryAfterHint(0, maxf(s.cfg.RatePerSec, 1), s.bucket.jitter()))
			return
		}

		ctx, cancel := s.requestContext(r)
		defer cancel()

		var req Request
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			s.reg.Counter("serve.bad_requests").Inc()
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Errorf("decoding request body: %w", err), 0)
			return
		}

		s.reg.Counter("serve.admitted").Inc()
		start := time.Now()
		resp, err := s.callIsolated(ctx, h, &req, tier)
		lat.Observe(time.Since(start).Seconds())
		if err != nil {
			status, class := s.classify(ctx, err)
			switch {
			case status == http.StatusGatewayTimeout:
				s.reg.Counter("serve.deadline_exceeded").Inc()
			case status >= 500:
				s.reg.Counter("serve.errors_5xx").Inc()
			}
			if pe := faults.AsPanic(err); pe != nil {
				s.reg.Counter("serve.panics").Inc()
				s.cfg.Logf("serve: %s: worker panic isolated: %v\n%s", endpoint, pe.Value, pe.Stack)
			} else if status >= 500 {
				s.cfg.Logf("serve: %s: %v", endpoint, err)
			}
			writeError(w, status, class, err, 0)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// callIsolated runs the endpoint body with per-request panic isolation:
// a panic anywhere below (handler bug, pipeline invariant) becomes a
// *faults.PanicError on this request's error path, never process death.
func (s *Server) callIsolated(ctx context.Context, h handlerFunc, req *Request,
	tier DegradeTier) (resp any, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, faults.Recovered(r)
		}
	}()
	ctx = context.WithValue(ctx, tierKey{}, tier)
	return h(ctx, req)
}

// tierKey carries the admission-time degradation tier to the handler, so
// one request observes one consistent tier.
type tierKey struct{}

func tierFrom(ctx context.Context) DegradeTier {
	if t, ok := ctx.Value(tierKey{}).(DegradeTier); ok {
		return t
	}
	return TierNormal
}

// requestContext applies the deadline policy: the server default, unless
// the client asked for less via ?deadline_ms= (capped at MaxDeadline).
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if q := r.URL.Query().Get("deadline_ms"); q != "" {
		if ms, err := strconv.ParseInt(q, 10, 64); err == nil && ms > 0 {
			d = time.Duration(ms) * time.Millisecond
			if s.cfg.MaxDeadline > 0 && d > s.cfg.MaxDeadline {
				d = s.cfg.MaxDeadline
			}
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// classify maps an error onto its HTTP status and machine class, the
// faults taxonomy made wire-visible.
func (s *Server) classify(ctx context.Context, err error) (int, string) {
	var badReq *requestError
	if errors.As(err, &badReq) {
		return http.StatusBadRequest, "bad_request"
	}
	switch {
	case errors.Is(err, faults.ErrCanceled) || errors.Is(err, context.DeadlineExceeded):
		if ctx.Err() == context.DeadlineExceeded {
			return http.StatusGatewayTimeout, "deadline_exceeded"
		}
		return 499, "canceled" // client went away (nginx convention)
	case errors.Is(err, faults.ErrNonAffine):
		return http.StatusUnprocessableEntity, "non_affine"
	case errors.Is(err, faults.ErrDegreeTooHigh):
		return http.StatusUnprocessableEntity, "degree_too_high"
	case errors.Is(err, faults.ErrNoConvenientRoot):
		return http.StatusUnprocessableEntity, "no_convenient_root"
	case errors.Is(err, faults.ErrOverflow):
		return http.StatusUnprocessableEntity, "overflow"
	case errors.Is(err, faults.ErrRecoveryDiverged):
		return http.StatusInternalServerError, "recovery_diverged"
	case faults.AsPanic(err) != nil:
		return http.StatusInternalServerError, "panic"
	}
	return http.StatusInternalServerError, "internal"
}

// requestError marks a caller mistake (missing fields, malformed nest,
// out-of-domain query) for 400 classification.
type requestError struct{ err error }

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &requestError{err: fmt.Errorf(format, args...)}
}

// handleHealthz is the readiness probe: 200 while the daemon can take
// meaningful work, 503 when draining or saturated (load at or past the
// force-fallback tier). The JSON body reports the degradation tier and
// in-flight load either way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	tier := s.Tier()
	doc := map[string]any{
		"status":       "ok",
		"draining":     s.draining.Load(),
		"degrade_tier": tier.String(),
		"inflight":     s.inflight.Load(),
		"max_inflight": s.cfg.MaxInflight,
		"load":         s.loadFraction(),
	}
	status := http.StatusOK
	if s.draining.Load() || tier >= TierForceFallback {
		doc["status"] = "unavailable"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, doc)
}

// Serve starts the daemon on addr ("127.0.0.1:0", ":8080") in a
// background goroutine and returns the bound address.
func (s *Server) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go s.httpSrv.Serve(ln)
	return ln.Addr(), nil
}

// Addr returns the bound address (nil before Serve).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains gracefully: new requests are refused with 503, the
// listener closes, and in-flight requests get until ctx (or the
// configured ShutdownTimeout when ctx has no deadline) to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ShutdownTimeout)
		defer cancel()
	}
	return s.httpSrv.Shutdown(ctx)
}

// Close abandons in-flight requests (tests); prefer Shutdown.
func (s *Server) Close() error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// writeError renders the uniform error document. retry > 0 adds a
// Retry-After header with fractional seconds (the daemon's own client
// parses the fraction; integer-only clients round up).
func writeError(w http.ResponseWriter, status int, class string, err error, retry time.Duration) {
	doc := ErrorResponse{Error: err.Error(), Class: class}
	if retry > 0 {
		doc.RetryAfterS = retry.Seconds()
		w.Header().Set("Retry-After", formatRetryAfter(retry))
	}
	writeJSON(w, status, doc)
}

// formatRetryAfter renders a duration as decimal seconds with
// millisecond resolution, e.g. "0.042".
func formatRetryAfter(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
