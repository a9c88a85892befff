package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// captureF redirects stdout around an arbitrary function (captureRun
// only wraps a plain run(o) call).
func captureF(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

// TestServeFlag runs a quick figure with -serve and checks the plane
// answers with a valid exposition while the run is up.
func TestServeFlag(t *testing.T) {
	o := options{fig: "2", fig2N: 60, fig2T: 3, threads: 3}
	o.serve = "127.0.0.1:0"
	o.hold = 300 * time.Millisecond
	addrCh := make(chan net.Addr, 1)
	o.serveReady = func(a net.Addr) { addrCh <- a }

	var healthz, exposition string
	_, err := captureF(t, func() error {
		runErr := make(chan error, 1)
		go func() { runErr <- run(o) }()
		var addr net.Addr
		select {
		case addr = <-addrCh:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("plane never came up")
		}
		healthz = get(addr, "/healthz")
		exposition = get(addr, "/metrics")
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
	// Even with no instrumented figure the process gauges are live.
	if !strings.Contains("\n"+exposition, "\n# TYPE process_goroutines gauge\n") {
		t.Errorf("process gauges missing:\n%s", exposition)
	}
}

// get fetches one path from the plane ("" on any error).
func get(addr net.Addr, path string) string {
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
