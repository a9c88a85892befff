package serve

import (
	"math/rand"
	"sync"
	"time"
)

// jitterFrac is the maximum fraction of the base refill wait added as
// jitter to Retry-After hints: spreading retries over [wait, wait*1.25)
// decorrelates a thundering herd of clients that were all rejected in
// the same refill window.
const jitterFrac = 0.25

// tokenBucket is the admission controller: a classic token bucket with
// ratePerSec refill and burst capacity, plus a Retry-After estimator
// derived from the live refill state. now and rnd are injectable for the
// header-math unit tests; production uses time.Now and a seeded PRNG.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time
	rnd    func() float64 // uniform [0,1)
}

// newTokenBucket returns a full bucket. rate <= 0 disables admission
// control (take always succeeds).
func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	src := rand.New(rand.NewSource(time.Now().UnixNano()))
	b := &tokenBucket{
		rate:   rate,
		burst:  burst,
		tokens: burst,
		now:    time.Now,
		rnd:    src.Float64,
	}
	b.last = b.now()
	return b
}

// refillLocked advances the bucket to t.
func (b *tokenBucket) refillLocked(t time.Time) {
	if dt := t.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
}

// take admits one request, or reports the jittered Retry-After hint
// derived from the current refill state: the exact time until one token
// accrues at the configured rate, stretched by up to jitterFrac so
// concurrently rejected clients do not return in lockstep.
func (b *tokenBucket) take() (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, retryAfterHint(b.tokens, b.rate, b.rnd())
}

// jitter draws the Retry-After jitter for rejections the bucket did not
// make (semaphore full, codegen shed), under the lock that take holds
// for its own draws: the PRNG is not safe for concurrent use.
func (b *tokenBucket) jitter() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rnd()
}

// retryAfterHint is the header math, factored out for unit testing:
// given the current token count (< 1) and refill rate, the base wait is
// the time for the deficit to refill, (1-tokens)/rate seconds; the hint
// is base*(1 + jitterFrac*r) for r in [0,1). The result is never
// negative and never zero (a zero hint would tell clients to hammer).
func retryAfterHint(tokens, rate, r float64) time.Duration {
	deficit := 1 - tokens
	if deficit < 0 {
		deficit = 0
	}
	base := deficit / rate
	d := time.Duration(base * (1 + jitterFrac*r) * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
