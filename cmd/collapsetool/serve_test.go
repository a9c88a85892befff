package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// scrapeOnce GETs one path and returns the body ("" on any error).
func scrapeOnce(addr net.Addr, path string) string {
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ""
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ""
	}
	return string(body)
}

// TestServeFlag runs -stats with -serve and scrapes the plane while it
// is up: the exposition must be valid OpenMetrics and, once the run has
// progressed, carry the compile/cache/omp/unrank series; /healthz and
// /snapshot must answer.
func TestServeFlag(t *testing.T) {
	o := base(writeInput(t))
	o.stats = true
	o.statsN = 40
	o.serve = "127.0.0.1:0"
	o.hold = 1500 * time.Millisecond
	addrCh := make(chan net.Addr, 1)
	o.serveReady = func(a net.Addr) { addrCh <- a }

	// All scraping happens inside the capture window (run prints the
	// -stats report to stdout); assertions run after it returns.
	var healthz, exposition, snapshot string
	_, err := capture(t, func() error {
		runErr := make(chan error, 1)
		go func() { runErr <- run(o) }()
		var addr net.Addr
		select {
		case addr = <-addrCh:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("plane never came up")
		}
		healthz = scrapeOnce(addr, "/healthz")
		// Poll /metrics until the run's series appear (the hold window
		// keeps the plane up past run end, so this converges).
		deadline := time.Now().Add(8 * time.Second)
		for time.Now().Before(deadline) {
			exposition = scrapeOnce(addr, "/metrics")
			if strings.Contains(exposition, "omp_") && strings.Contains(exposition, "unrank_") {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		snapshot = scrapeOnce(addr, "/snapshot")
		return <-runErr
	})
	if err != nil {
		t.Fatal(err)
	}

	if !strings.Contains(healthz, "ok") {
		t.Errorf("/healthz = %q", healthz)
	}
	if !strings.HasSuffix(exposition, "\n# EOF\n") {
		t.Fatalf("served exposition does not end with # EOF:\n%s", exposition)
	}
	for _, prefix := range []string{"compile_", "cache_", "omp_", "unrank_"} {
		if !strings.Contains("\n"+exposition, "\n# TYPE "+prefix) {
			t.Errorf("no %s* family in served exposition:\n%s", prefix, exposition)
		}
	}
	if !strings.Contains(snapshot, `"counters"`) {
		t.Errorf("/snapshot missing counters: %q", snapshot)
	}
}

// TestServeFlagBadAddr: an unbindable address fails the run up front.
func TestServeFlagBadAddr(t *testing.T) {
	o := base(writeInput(t))
	o.serve = "256.256.256.256:1"
	if _, err := capture(t, func() error { return run(o) }); err == nil {
		t.Error("bad -serve address accepted")
	}
}
