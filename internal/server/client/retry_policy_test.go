package client

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	b := backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2,
		Jitter: 1e-9, Rand: func() float64 { return 0 }}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		got := b.Delay(i)
		w *= time.Millisecond
		// Jitter is epsilon; allow 1% slack.
		if got < w*99/100 || got > w {
			t.Fatalf("Delay(%d) = %s, want ~%s", i, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	for _, r := range []float64{0, 0.5, 0.999} {
		b := backoff{Base: 100 * time.Millisecond, Max: time.Second, Rand: func() float64 { return r }}
		d := b.Delay(0)
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("Delay with rand=%g = %s, want within [50ms,100ms]", r, d)
		}
	}
}

func TestPolicyDoRetriesThenSucceeds(t *testing.T) {
	p := retryPolicy{MaxAttempts: 4, Backoff: backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}}
	calls := 0
	err := p.Do(context.Background(), func(attempt int) (time.Duration, bool, error) {
		if attempt != calls {
			t.Fatalf("attempt %d out of order (calls %d)", attempt, calls)
		}
		calls++
		if calls < 3 {
			return 0, true, errors.New("transient")
		}
		return 0, false, nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestPolicyDoStopsOnNonRetryable(t *testing.T) {
	p := retryPolicy{MaxAttempts: 5, Backoff: backoff{Base: time.Millisecond}}
	calls := 0
	fatal := errors.New("fatal")
	err := p.Do(context.Background(), func(int) (time.Duration, bool, error) {
		calls++
		return 0, false, fatal
	})
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("Do = %v after %d calls, want fatal after 1", err, calls)
	}
}

func TestPolicyDoExhaustsAttempts(t *testing.T) {
	p := retryPolicy{MaxAttempts: 3, Backoff: backoff{Base: time.Millisecond, Max: time.Millisecond}}
	calls := 0
	transient := errors.New("transient")
	err := p.Do(context.Background(), func(int) (time.Duration, bool, error) {
		calls++
		return 0, true, transient
	})
	if !errors.Is(err, transient) || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want transient after 3", err, calls)
	}
}

func TestPolicyDoHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := retryPolicy{MaxAttempts: 10, Backoff: backoff{Base: time.Hour, Max: time.Hour}}
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, func(int) (time.Duration, bool, error) {
			return 0, true, errors.New("transient")
		})
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Do = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not honor cancellation")
	}
}

func TestPolicyDoHonorsHintOverBackoff(t *testing.T) {
	p := retryPolicy{MaxAttempts: 2, Backoff: backoff{Base: time.Millisecond, Max: time.Millisecond},
		MaxHintWait: 80 * time.Millisecond}
	t0 := time.Now()
	p.Do(context.Background(), func(int) (time.Duration, bool, error) {
		return 50 * time.Millisecond, true, errors.New("hinted")
	})
	if d := time.Since(t0); d < 50*time.Millisecond {
		t.Fatalf("retry waited %s, want >= the 50ms hint", d)
	}
}

func TestPolicyDoCapsHint(t *testing.T) {
	p := retryPolicy{MaxAttempts: 2, Backoff: backoff{Base: time.Millisecond, Max: time.Millisecond},
		MaxHintWait: 30 * time.Millisecond}
	t0 := time.Now()
	p.Do(context.Background(), func(int) (time.Duration, bool, error) {
		return time.Hour, true, errors.New("hinted")
	})
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("retry waited %s, want the hint capped at 30ms", d)
	}
}

func TestRetryableStatus(t *testing.T) {
	for code, want := range map[int]bool{
		http.StatusOK: false, http.StatusBadRequest: false, http.StatusNotFound: false,
		http.StatusTooManyRequests: true, http.StatusInternalServerError: false,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: false,
	} {
		if got := retryableStatus(code); got != want {
			t.Errorf("retryableStatus(%d) = %v, want %v", code, got, want)
		}
	}
}

func TestRetryAfter(t *testing.T) {
	h := http.Header{}
	if _, ok := retryAfter(h); ok {
		t.Fatal("absent header reported ok")
	}
	h.Set("Retry-After", "2")
	if d, ok := retryAfter(h); !ok || d != 2*time.Second {
		t.Fatalf("seconds form: %s, %v", d, ok)
	}
	h.Set("Retry-After", "0")
	if d, ok := retryAfter(h); !ok || d != 0 {
		t.Fatalf("zero seconds: %s, %v", d, ok)
	}
	h.Set("Retry-After", time.Now().Add(3*time.Second).UTC().Format(http.TimeFormat))
	if d, ok := retryAfter(h); !ok || d <= 0 || d > 4*time.Second {
		t.Fatalf("date form: %s, %v", d, ok)
	}
	h.Set("Retry-After", "soon")
	if _, ok := retryAfter(h); ok {
		t.Fatal("malformed header reported ok")
	}
}
