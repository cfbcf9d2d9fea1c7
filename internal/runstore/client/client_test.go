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
)

func fastClient(url string) *Client {
	return &Client{BaseURL: url, Retries: 3, Backoff: time.Millisecond}
}

// TestRetriesTransientFailures: 5xx and transport-level flakiness retry
// until success; the submission is idempotent so this is always safe.
func TestRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(BatchStatus{ID: "b1", Done: true})
	}))
	defer ts.Close()
	bs, err := fastClient(ts.URL).Submit(context.Background(), Manifest{Jobs: []JobRequest{{Workload: "Stream"}}})
	if err != nil {
		t.Fatalf("submit did not survive transient 500s: %v", err)
	}
	if bs.ID != "b1" || calls.Load() != 3 {
		t.Fatalf("got %+v after %d calls, want b1 after 3", bs, calls.Load())
	}
}

// TestRetries429: a full queue (429) is backpressure, not failure — the
// client backs off and resubmits.
func TestRetries429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(BatchStatus{ID: "b2", Done: true})
	}))
	defer ts.Close()
	if _, err := fastClient(ts.URL).Submit(context.Background(), Manifest{}); err != nil {
		t.Fatalf("429 was not retried: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d calls, want 2", calls.Load())
	}
}

// TestNoRetryOn4xx: client errors are deterministic — retrying a bad
// manifest cannot fix it, so the client fails at once with a StatusError.
func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad manifest"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	_, err := fastClient(ts.URL).Submit(context.Background(), Manifest{})
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusBadRequest || se.Msg != "bad manifest" {
		t.Fatalf("err = %v, want StatusError 400 'bad manifest'", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls.Load())
	}
}

// TestGivesUpAfterRetries: a persistently dead server eventually surfaces
// the last failure instead of looping forever.
func TestGivesUpAfterRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := fastClient(ts.URL)
	if _, err := c.Submit(context.Background(), Manifest{}); err == nil {
		t.Fatal("dead server did not surface an error")
	}
	if got := calls.Load(); got != int32(c.Retries)+1 {
		t.Fatalf("%d attempts, want %d", got, c.Retries+1)
	}
}

// TestBackoffGrowsWithJitter pins the retry pacing contract: delays double
// per attempt and carry up to 50% additive jitter — never shorter than the
// base, never more than 1.5x it.
func TestBackoffGrowsWithJitter(t *testing.T) {
	c := &Client{Backoff: 100 * time.Millisecond}
	c.init()
	for attempt, base := range []time.Duration{100, 200, 400, 800} {
		base *= time.Millisecond
		for i := 0; i < 50; i++ {
			d := c.delay(attempt)
			if d < base || d > base+base/2 {
				t.Fatalf("attempt %d delay %v outside [%v, %v]", attempt, d, base, base+base/2)
			}
		}
	}
}

// TestRequestTimeout: a hung server trips the per-request timeout rather
// than wedging the caller.
func TestRequestTimeout(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block) // LIFO: unblock the handler before ts.Close waits on it
	c := &Client{BaseURL: ts.URL, Timeout: 50 * time.Millisecond, Retries: 1, Backoff: time.Millisecond}
	start := time.Now()
	if _, err := c.Batch(context.Background(), "b1"); err == nil {
		t.Fatal("hung server did not time out")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("timeout took %v", el)
	}
}

// TestRetryAfterFloorsBackoff: when a 429 carries Retry-After, the server's
// own estimate floors the client's next delay — a loaded server is never
// hammered faster than it asked for.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	var calls atomic.Int32
	var gaps []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gaps = append(gaps, time.Now())
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(BatchStatus{ID: "b3", Done: true})
	}))
	defer ts.Close()
	// Client backoff is 1ms; Retry-After says 1s. The gap must honor the
	// server, not the client schedule.
	if _, err := fastClient(ts.URL).Submit(context.Background(), Manifest{}); err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 2 {
		t.Fatalf("%d calls, want 2", len(gaps))
	}
	if gap := gaps[1].Sub(gaps[0]); gap < time.Second {
		t.Fatalf("retry after %v, want >= 1s (Retry-After floor)", gap)
	}
}

// TestCancelAbortsBackoffSleep: a canceled context aborts an in-flight
// backoff sleep immediately — a canceled sweep must not finish a multi-
// second sleep before exiting.
func TestCancelAbortsBackoffSleep(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, Retries: 3, Backoff: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Submit(ctx, Manifest{})
	if err == nil {
		t.Fatal("canceled submit returned success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("cancel took %v to abort a 10s backoff sleep", el)
	}
}

// TestTruncatedBodyRetries: a 2xx whose JSON body is cut mid-way is
// transport damage, not an answer — the client retries and succeeds.
func TestTruncatedBodyRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Promise more bytes than delivered: the decoder sees an
			// unexpected EOF, exactly what a mid-transfer cut produces.
			w.Header().Set("Content-Length", "4096")
			w.Write([]byte(`{"id":"b4","jobs":[{"id":"tru`))
			return
		}
		json.NewEncoder(w).Encode(BatchStatus{ID: "b4", Done: true})
	}))
	defer ts.Close()
	bs, err := fastClient(ts.URL).Submit(context.Background(), Manifest{})
	if err != nil {
		t.Fatalf("truncated body was not retried: %v", err)
	}
	if bs.ID != "b4" || calls.Load() != 2 {
		t.Fatalf("got %+v after %d calls, want b4 after 2", bs, calls.Load())
	}
}

// TestProbesSingleAttempt: the readiness probe never retries — a probe that
// retries is just a slow way to report "down".
func TestProbesSingleAttempt(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "2")
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	err := fastClient(ts.URL).Readyz(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz err = %v, want 503 StatusError", err)
	}
	if se.RetryAfter != 2*time.Second {
		t.Fatalf("readyz RetryAfter = %v, want 2s", se.RetryAfter)
	}
	if calls.Load() != 1 {
		t.Fatalf("probe made %d requests, want 1 (no retries)", calls.Load())
	}
}
