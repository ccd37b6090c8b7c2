// Package retry implements the fault-tolerance primitives of the crawl
// layer: an exponential-backoff retry policy with seeded (deterministic)
// jitter, Retry-After honoring, per-request attempt budgets, and a shared
// circuit breaker that sheds load from a failing upstream.
//
// Determinism contract: every delay the policy computes is a pure function
// of (Seed, key, attempt). Timing — how long a call actually waits, whether
// the breaker is open when it arrives — never influences *whether* a request
// ultimately succeeds, only *when*; a breaker rejection waits and re-enters
// rather than consuming the attempt budget. Callers that key their upstream
// behavior on (request, attempt) therefore get byte-identical outcomes at
// any concurrency.
package retry

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"patchdb/internal/telemetry"
)

// The registry metric families the retry layer emits when a Policy or
// Breaker carries a telemetry registry.
const (
	// MetricAttempts counts every attempt made under a policy (first tries
	// included).
	MetricAttempts = "retry_attempts_total"
	// MetricRetries counts scheduled retries (attempts beyond the first).
	MetricRetries = "retry_retries_total"
	// MetricAttemptSeconds is the per-attempt latency histogram.
	MetricAttemptSeconds = "retry_attempt_seconds"
	// MetricBackoffSeconds is the histogram of computed backoff delays.
	MetricBackoffSeconds = "retry_backoff_seconds"
	// MetricBreakerTrips counts closed-to-open breaker transitions.
	MetricBreakerTrips = "breaker_trips_total"
	// MetricBreakerRejections counts attempts the breaker turned away (the
	// caller waits and re-enters, so rejections delay rather than fail).
	MetricBreakerRejections = "breaker_rejections_total"
)

// The backoff schedule's fixed shape: each retry's delay doubles, then is
// spread by ±jitter of itself.
const (
	backoffMultiplier = 2
	jitter            = 0.5
)

// Policy shapes how an operation is retried. The zero value is usable:
// 4 attempts, 50ms base delay doubling up to 2s, 50% jitter, no breaker.
type Policy struct {
	// MaxAttempts is the total attempt budget per operation, including the
	// first try (0 = default 4; negative = a single attempt, no retries).
	MaxAttempts int
	// BaseDelay is the delay before the first retry (0 = default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential schedule and any Retry-After hint
	// (0 = default 2s).
	MaxDelay time.Duration
	// Seed drives the jitter, derived from Seed+key+attempt, so a given
	// (key, attempt) always sleeps the same duration.
	Seed int64
	// Breaker, when non-nil, gates every attempt. An open breaker makes the
	// policy wait for a half-open probe slot instead of failing: breaker
	// state delays attempts but never consumes the attempt budget.
	Breaker *Breaker
	// Sleep replaces the default context-aware sleep (tests). nil = real
	// timer sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Registry, when non-nil, receives attempt/retry counters and latency
	// and backoff histograms (MetricAttempts, MetricRetries,
	// MetricAttemptSeconds, MetricBackoffSeconds).
	Registry *telemetry.Registry
}

// Do runs fn under the policy until it succeeds, returns a permanent error,
// exhausts the attempt budget, or ctx is canceled. It returns the number of
// attempts actually made alongside fn's final error. key identifies the
// operation for jitter derivation (use the request URL).
func (p Policy) Do(ctx context.Context, key string, fn func(context.Context) error) (attempts int, err error) {
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return attempt - 1, cerr
		}
		release, gateErr := p.acquire(ctx)
		if gateErr != nil {
			return attempt - 1, gateErr
		}
		p.Registry.Counter(MetricAttempts).Inc()
		attemptStart := time.Now()
		err = fn(ctx)
		p.Registry.Histogram(MetricAttemptSeconds, nil).Observe(time.Since(attemptStart).Seconds())
		if release != nil {
			release(err != nil)
		}
		if err == nil {
			return attempt, nil
		}
		if ctx.Err() != nil || IsPermanent(err) || attempt >= p.maxAttempts() {
			return attempt, err
		}
		delay := p.Delay(key, attempt)
		if hint, ok := RetryAfterHint(err); ok {
			delay = max(delay, min(hint, p.maxDelay()))
		}
		p.Registry.Counter(MetricRetries).Inc()
		p.Registry.Histogram(MetricBackoffSeconds, nil).Observe(delay.Seconds())
		if serr := p.sleep(ctx, delay); serr != nil {
			return attempt, serr
		}
	}
}

// acquire waits until the breaker (if any) admits an attempt. It returns
// the release callback to report the attempt's outcome, or a context error.
func (p Policy) acquire(ctx context.Context) (func(failed bool), error) {
	if p.Breaker == nil {
		return nil, nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		release, wait := p.Breaker.Allow()
		if release != nil {
			return release, nil
		}
		if err := p.sleep(ctx, wait); err != nil {
			return nil, err
		}
	}
}

// Delay computes the backoff before retry number attempt (1-based: the
// delay after the attempt-th failure). It is a pure function of
// (Seed, key, attempt).
func (p Policy) Delay(key string, attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxDelay := p.maxDelay()
	d := float64(base) * math.Pow(backoffMultiplier, float64(attempt-1))
	if d > float64(maxDelay) {
		d = float64(maxDelay)
	}
	u := unitFloat(hashKey(p.Seed, key, attempt))
	d *= 1 + jitter*(2*u-1)
	return time.Duration(d)
}

func (p Policy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

func (p Policy) maxAttempts() int {
	switch {
	case p.MaxAttempts > 0:
		return p.MaxAttempts
	case p.MaxAttempts < 0:
		return 1
	default:
		return 4
	}
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// hashKey derives a 64-bit hash from the seed, key, and attempt number.
func hashKey(seed int64, key string, attempt int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
		buf[8+i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is a murmur3-style finalizer: FNV alone avalanches weakly into the
// high bits unitFloat consumes.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// permanentError marks an error that retrying cannot fix (e.g. a 404).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately instead of retrying. A nil
// err returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// retryAfterError carries an upstream back-off hint (a 429 Retry-After).
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.err, e.after)
}
func (e *retryAfterError) Unwrap() error { return e.err }

// WithRetryAfter attaches a server-advertised minimum back-off to err; Do
// waits at least that long before the next attempt, up to the policy's
// MaxDelay. A nil err returns nil.
func WithRetryAfter(err error, after time.Duration) error {
	if err == nil {
		return nil
	}
	return &retryAfterError{err: err, after: after}
}

// RetryAfterHint extracts the largest Retry-After hint attached to err.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}
