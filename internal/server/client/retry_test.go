package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// fastRetry is a policy with near-instant backoff so retry tests don't
// sleep for real.
func fastRetry(attempts int) *retryPolicy {
	return &retryPolicy{
		MaxAttempts: attempts,
		Backoff:     backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: 0.01},
	}
}

// TestDefaultTimeout: a Client without an explicit transport gets one with
// a finite timeout — http.DefaultClient (no timeout) would let a wedged
// daemon hang callers forever.
func TestDefaultTimeout(t *testing.T) {
	c := New("http://127.0.0.1:1")
	hc := c.httpClient()
	if hc.Timeout != DefaultTimeout {
		t.Fatalf("default transport timeout = %s, want %s", hc.Timeout, DefaultTimeout)
	}
	if DefaultTimeout <= 5*time.Minute {
		t.Fatalf("DefaultTimeout %s must exceed the daemon's 5m max deadline", DefaultTimeout)
	}
	own := &http.Client{Timeout: time.Second}
	c.HTTP = own
	if c.httpClient() != own {
		t.Fatal("explicit transport not honored")
	}
}

// TestAnalyzeRetries503: 503s with a Retry-After hint are replayed until
// the server recovers; the eventual success is returned as if nothing
// happened.
func TestAnalyzeRetries503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "draining"})
			return
		}
		json.NewEncoder(w).Encode(server.AnalyzeResponse{ID: "sha256:ok"})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(3)
	resp, err := c.Analyze(context.Background(), server.AnalyzeRequest{Source: "int x;"})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if resp.ID != "sha256:ok" || calls.Load() != 3 {
		t.Fatalf("resp.ID=%q after %d calls, want sha256:ok after 3", resp.ID, calls.Load())
	}
}

// TestAnalyzeRetriesTransportError: a severed connection is retried like
// any transient failure.
func TestAnalyzeRetriesTransportError(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		json.NewEncoder(w).Encode(server.AnalyzeResponse{ID: "sha256:ok"})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(3)
	if _, err := c.Analyze(context.Background(), server.AnalyzeRequest{Source: "int x;"}); err != nil {
		t.Fatalf("Analyze after drop: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// TestAnalyzeNoRetryOnClientError: a 422 is the client's fault; replaying
// the identical request cannot help.
func TestAnalyzeNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "parse error"})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry(3)
	_, err := c.Analyze(context.Background(), server.AnalyzeRequest{Source: "int x = ;"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422 APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (no retry on 4xx)", calls.Load())
	}
}

// TestRetryDisabled: MaxAttempts 1 turns retries off and surfaces the raw
// failure.
func TestRetryDisabled(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "draining"})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = &retryPolicy{MaxAttempts: 1}
	_, err := c.Analyze(context.Background(), server.AnalyzeRequest{Source: "int x;"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

// TestReady: readiness against a real daemon — ready while serving, not
// ready (with the reason) once draining, and never an error for the 503.
func TestReady(t *testing.T) {
	svc := server.New(server.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	c := New(ts.URL)
	resp, ready, err := c.Ready(context.Background())
	if err != nil || !ready || resp.Status != "ready" {
		t.Fatalf("Ready = %+v, %v, %v; want ready", resp, ready, err)
	}

	svc.BeginDrain()
	resp, ready, err = c.Ready(context.Background())
	if err != nil || ready || resp.Status != "draining" {
		t.Fatalf("Ready while draining = %+v, %v, %v; want not ready, draining", resp, ready, err)
	}

	// Probes never retry: exactly one exchange per call.
	var calls atomic.Int32
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.HealthResponse{Status: "draining"})
	}))
	defer probe.Close()
	pc := New(probe.URL)
	pc.Retry = fastRetry(3)
	if _, ready, err := pc.Ready(context.Background()); err != nil || ready {
		t.Fatalf("probe Ready = %v, %v", ready, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("probe calls = %d, want 1 (probes must not retry)", calls.Load())
	}
}
