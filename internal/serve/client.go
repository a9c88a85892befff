package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// APIError is a non-2xx daemon answer, decoded from the uniform error
// document. RetryAfter carries the server's backoff hint when one was
// sent.
type APIError struct {
	Status     int
	Class      string
	Msg        string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: HTTP %d (%s): %s", e.Status, e.Class, e.Msg)
}

// Temporary reports whether the request may succeed on retry: overload
// shedding and drain answers are temporary, everything else (bad
// requests, applicability failures, which the daemon memoizes per nest
// shape) is not.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Client is the daemon's Go client: JSON requests with bounded retries,
// exponential backoff with full jitter, and Retry-After hints honored
// exactly (the server derives them from its token-bucket refill state,
// so obeying them is the fastest polite re-entry).
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try (default 3;
	// negative disables retries).
	MaxRetries int
	// BaseBackoff seeds the exponential backoff when the server sent no
	// Retry-After hint (default 50ms, doubling per attempt, full
	// jitter); MaxBackoff caps it (default 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Deadline, when positive, is sent as ?deadline_ms= on every
	// request so the server enforces it end to end.
	Deadline time.Duration

	// rnd is injectable for deterministic backoff tests.
	rnd func() float64
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 3
	}
	return c.MaxRetries
}

func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint
	}
	base := c.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := c.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Second
	}
	d := base << uint(attempt)
	if d > maxB {
		d = maxB
	}
	rnd := c.rnd
	if rnd == nil {
		rnd = rand.Float64
	}
	// Full jitter: uniform in (0, d] — decorrelates a retrying fleet.
	return time.Duration(float64(d) * (0.5 + 0.5*rnd()))
}

// do posts req to path and decodes the answer into out, retrying
// temporary failures (429/503 and transport errors) with backoff.
func (c *Client) do(ctx context.Context, path string, req *Request, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	u := c.BaseURL + path
	if c.Deadline > 0 {
		u += "?deadline_ms=" + strconv.FormatInt(c.Deadline.Milliseconds(), 10)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(hreq)
		var hint time.Duration
		if err != nil {
			lastErr = err
		} else {
			lastErr, hint = decodeResponse(resp, out)
			if lastErr == nil {
				return nil
			}
			if ae, ok := lastErr.(*APIError); ok && !ae.Temporary() {
				return lastErr
			}
		}
		if attempt >= c.maxRetries() {
			return lastErr
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.backoff(attempt, hint)):
		}
	}
}

// decodeResponse consumes one HTTP response: 2xx decodes into out,
// everything else decodes the error document into an *APIError.
func decodeResponse(resp *http.Response, out any) (error, time.Duration) {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 == 2 {
		if out == nil {
			return nil, 0
		}
		return json.NewDecoder(resp.Body).Decode(out), 0
	}
	ae := &APIError{Status: resp.StatusCode, Class: "internal"}
	var doc ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err == nil {
		ae.Class = doc.Class
		ae.Msg = doc.Error
		if doc.RetryAfterS > 0 {
			ae.RetryAfter = time.Duration(doc.RetryAfterS * float64(time.Second))
		}
	}
	if ae.RetryAfter == 0 {
		ae.RetryAfter = ParseRetryAfter(resp.Header.Get("Retry-After"))
	}
	return ae, ae.RetryAfter
}

// ParseRetryAfter parses a Retry-After header value as decimal seconds
// (the daemon's fractional form or the RFC's integer form); malformed or
// absent values yield 0.
func ParseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil && secs >= 0 {
		return time.Duration(secs * float64(time.Second))
	}
	return 0
}

// Compile asks for the symbolic collapse of the request's nest.
func (c *Client) Compile(ctx context.Context, req *Request) (*CompileResponse, error) {
	var out CompileResponse
	if err := c.do(ctx, "/v1/compile", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Count returns the iteration count of the bound nest.
func (c *Client) Count(ctx context.Context, req *Request) (*CountResponse, error) {
	var out CountResponse
	if err := c.do(ctx, "/v1/count", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Rank returns the 1-based collapsed rank of req.Index.
func (c *Client) Rank(ctx context.Context, req *Request) (*RankResponse, error) {
	var out RankResponse
	if err := c.do(ctx, "/v1/rank", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Unrank returns the iteration tuple at rank req.Pc.
func (c *Client) Unrank(ctx context.Context, req *Request) (*UnrankResponse, error) {
	var out UnrankResponse
	if err := c.do(ctx, "/v1/unrank", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Codegen emits collapsed source for the nest.
func (c *Client) Codegen(ctx context.Context, req *Request) (*CodegenResponse, error) {
	var out CodegenResponse
	if err := c.do(ctx, "/v1/codegen", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Execute runs the nest on the daemon's parallel runtime.
func (c *Client) Execute(ctx context.Context, req *Request) (*ExecuteResponse, error) {
	var out ExecuteResponse
	if err := c.do(ctx, "/v1/execute", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz fetches the readiness document; ready is false on 503.
func (c *Client) Healthz(ctx context.Context) (ready bool, doc map[string]any, err error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	u, err := url.JoinPath(c.BaseURL, "/healthz")
	if err != nil {
		return false, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, nil, err
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return false, nil, err
	}
	defer resp.Body.Close()
	doc = map[string]any{}
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp.StatusCode == http.StatusOK, doc, nil
}
