package client

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// backoff computes capped exponential delays with jitter. The zero value
// selects the documented defaults.
type backoff struct {
	// Base is the delay before the first retry (default 50ms).
	Base time.Duration
	// Max caps the grown delay (default 2s).
	Max time.Duration
	// Factor is the per-attempt growth multiplier (default 2).
	Factor float64
	// Jitter is the randomized fraction of each delay in [0,1]: the delay
	// becomes d*(1-Jitter) + d*Jitter*rand. 0 selects the default 0.5
	// ("equal jitter"); use a tiny positive value for near-determinism.
	Jitter float64
	// Rand is the randomness seam for tests (default math/rand.Float64).
	Rand func() float64
}

func (b backoff) withDefaults() backoff {
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter <= 0 || b.Jitter > 1 {
		b.Jitter = 0.5
	}
	if b.Rand == nil {
		b.Rand = rand.Float64
	}
	return b
}

// Delay returns the wait before retry number attempt (0-based: Delay(0) is
// the wait after the first failure).
func (b backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	d := float64(b.Base)
	for i := 0; i < attempt && d < float64(b.Max); i++ {
		d *= b.Factor
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	d = d*(1-b.Jitter) + d*b.Jitter*b.Rand()
	return time.Duration(d)
}

// retryPolicy bounds a retry loop. The zero value selects the defaults.
type retryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3; 1 disables retries).
	MaxAttempts int
	// Backoff spaces the retries.
	Backoff backoff
	// MaxHintWait caps how long a server-provided hint (Retry-After) is
	// honored for (default 5s) — a hint beyond the cap waits the cap.
	MaxHintWait time.Duration
}

// Do calls fn until it succeeds, reports a non-retryable error, the
// attempts are exhausted, or ctx is done. fn receives the 0-based attempt
// number and returns a server wait hint (0 for none), whether the failure
// invites a retry, and the error (nil on success). The wait between
// attempts is the larger of the backoff delay and the (capped) hint.
func (p retryPolicy) Do(ctx context.Context, fn func(attempt int) (hint time.Duration, retryable bool, err error)) error {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.MaxHintWait <= 0 {
		p.MaxHintWait = 5 * time.Second
	}
	for attempt := 0; ; attempt++ {
		hint, retryable, err := fn(attempt)
		if err == nil || !retryable || attempt == p.MaxAttempts-1 {
			return err
		}
		wait := max(p.Backoff.Delay(attempt), min(hint, p.MaxHintWait))
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// retryableStatus reports whether an HTTP status invites retrying the same
// request: 429 (admission queue full) and 503 (draining or saturated).
// Everything else is either success, the client's fault, or a server fault
// that replaying will not cure.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryAfter parses a Retry-After header into a wait hint. Both the
// delta-seconds and the HTTP-date forms are accepted; absent or malformed
// headers report ok=false.
func retryAfter(h http.Header) (d time.Duration, ok bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil && secs >= 0 {
		return time.Duration(secs * float64(time.Second)), true
	}
	if t, err := http.ParseTime(v); err == nil {
		return max(time.Until(t), 0), true
	}
	return 0, false
}
