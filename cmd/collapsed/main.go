// Command collapsed is the collapse-as-a-service daemon: a long-running
// HTTP/JSON server answering compile/count/rank/unrank/codegen/execute
// queries about non-rectangular loop nests, hardened for sustained
// traffic (see internal/serve and the DESIGN.md request-lifecycle
// section).
//
// Endpoints (all POST, JSON bodies; see internal/serve.Request):
//
//	/v1/compile  symbolic collapse: ranking polynomial, total, roots
//	/v1/count    iteration count of a bound nest (exact past int64)
//	/v1/rank     collapsed rank of an iteration tuple
//	/v1/unrank   iteration tuple at a collapsed rank
//	/v1/codegen  collapsed C or Go source
//	/v1/execute  run the nest on the worker team (checksummed)
//	/healthz     readiness (degradation tier, load)
//	/metrics     OpenMetrics exposition (serve_* + runtime families)
//	/snapshot /trace /debug/pprof   the observability plane
//
// Robustness behavior: requests are admitted through a token bucket
// (-rate/-burst; rejections carry Retry-After hints derived from the
// refill state), bounded by a concurrency semaphore (-max-inflight),
// deadlined (-deadline default, client ?deadline_ms= capped by
// -max-deadline), and panic-isolated. A nest shape that fails
// compilation with an applicability error is compiled once: the collapse
// cache memoizes the error, so every later request for that shape, in
// any spelling, gets the same 422 without a compile. Under load the daemon
// degrades gracefully: codegen is shed first, then execute requests are
// forced down the uncollapsed fallback, then everything sheds with 429.
// SIGINT/SIGTERM drains in-flight requests within -shutdown-timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", ":8321", "listen address (use :0 for an ephemeral port)")
		threads     = flag.Int("threads", 0, "worker-team size for /v1/execute (default GOMAXPROCS)")
		maxInflight = flag.Int("max-inflight", 64, "bounded concurrent-request semaphore")
		rate        = flag.Float64("rate", 0, "token-bucket admission rate, requests/s (0 = unlimited)")
		burst       = flag.Float64("burst", 0, "token-bucket burst capacity (default 2*rate)")
		deadline    = flag.Duration("deadline", 5*time.Second, "server-enforced default per-request deadline")
		maxDeadline = flag.Duration("max-deadline", 30*time.Second, "cap on client ?deadline_ms= requests")
		shutdownT   = flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain budget on SIGTERM")
		cacheCap    = flag.Int("cache", 256, "collapse-cache and request-table capacity (entries each)")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		Threads:         *threads,
		MaxInflight:     *maxInflight,
		RatePerSec:      *rate,
		Burst:           *burst,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		ShutdownTimeout: *shutdownT,
		CacheCapacity:   *cacheCap,
		Registry:        telemetry.New(),
	})
	bound, err := srv.Serve(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "collapsed:", err)
		os.Exit(1)
	}
	// The bound address goes to stdout so scripts driving ":0" can scrape
	// the real port; everything else logs to stderr.
	fmt.Printf("listening on http://%s\n", bound)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "collapsed: signal received; draining")
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownT)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		fmt.Fprintln(os.Stderr, "collapsed: drain incomplete:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "collapsed: drained cleanly")
}
