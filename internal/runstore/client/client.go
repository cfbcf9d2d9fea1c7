// Package client is the wire protocol and HTTP client for cmd/mcmserve,
// the simulation service in front of the durable run store.
//
// The protocol is deliberately idempotent: job IDs are content-derived
// (runstore.KeyID over the job's store key), so resubmitting a manifest —
// after a timeout, a connection reset, or a server restart — can never
// duplicate work or results. That property is what lets Do retry freely
// with exponential backoff: the worst cost of a duplicate request is one
// extra store hit.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcmgpu/internal/core"
)

// JobRequest is one simulation in a manifest: a full machine configuration
// (the JSON form config.WriteJSON emits and `mcmsim -dump-config` prints),
// a workload name from the registry, and a scale factor (<= 0 or 1 = full
// size).
type JobRequest struct {
	System   json.RawMessage `json:"system"`
	Workload string          `json:"workload"`
	Scale    float64         `json:"scale,omitempty"`
}

// Manifest is one batched submission. Budgets and the audit switch apply
// to every job in the batch and participate in job identity, exactly as
// they do in the local runner's store keys.
type Manifest struct {
	Jobs      []JobRequest `json:"jobs"`
	MaxEvents uint64       `json:"max_events,omitempty"`
	MaxCycles uint64       `json:"max_cycles,omitempty"`
	Audit     bool         `json:"audit,omitempty"`
}

// Job states reported by the service.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Terminal reports whether a job state is final.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Result sources reported for done jobs.
const (
	SourceStore   = "store"   // served from the durable store, no simulation
	SourceCompute = "compute" // simulated by this server process
)

// JobStatus is the service's view of one job.
type JobStatus struct {
	// ID is the content-derived job identity; identical submissions map to
	// the same ID on every server sharing a store.
	ID       string `json:"id"`
	State    string `json:"state"`
	Source   string `json:"source,omitempty"`
	Error    string `json:"error,omitempty"`
	Workload string `json:"workload,omitempty"`
	Config   string `json:"config,omitempty"`
	// ErrKind classifies a failed job (runner.ErrClass values: "panic",
	// "budget", "invariant", "transient", "error").
	ErrKind string `json:"err_kind,omitempty"`
	// Attempts counts the job's deterministic failures. The first one
	// poisons the job, so a poisoned job reports 1.
	Attempts int `json:"attempts,omitempty"`
	// Poisoned marks a job quarantined after a deterministic failure;
	// resubmitting it returns the same structured failure instantly instead
	// of simulating it again.
	Poisoned bool `json:"poisoned,omitempty"`
}

// Done reports whether the job reached a terminal state.
func (s JobStatus) Done() bool { return Terminal(s.State) }

// BatchStatus is the service's view of one submitted manifest. Jobs appear
// in manifest order.
type BatchStatus struct {
	ID   string      `json:"id"`
	Jobs []JobStatus `json:"jobs"`
	Done bool        `json:"done"`
}

// ErrorBody is the JSON error payload of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}

// StatusError is a non-2xx response. The 4xx class (minus 429) is never
// retried; 429 and 5xx are.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the server's Retry-After header when one was sent; the
	// retry loop honors it as the floor of its next backoff delay, so a
	// loaded server's own estimate always wins over the client's schedule.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("mcmserve: HTTP %d: %s", e.Code, e.Msg)
}

// Retryable reports whether err can succeed on a retry against the same
// server: transport damage (including truncated responses that fail JSON
// decoding), 429 backpressure, and 5xx. Deterministic 4xx responses are
// not retryable. The protocol's idempotence is what makes retrying always
// safe.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusTooManyRequests || se.Code >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // transport-class: conn refused/reset, EOF, decode damage
}

// sleepCtx waits d or until ctx is done, whichever comes first — a
// canceled sweep aborts an in-flight backoff sleep immediately instead of
// finishing it.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
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

// Client talks to one mcmserve instance. The zero value is not usable;
// set BaseURL. All methods are safe for concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8037".
	BaseURL string
	// HTTP is the underlying client; nil means a default with Timeout as
	// the per-request bound.
	HTTP *http.Client
	// Timeout bounds each HTTP request when HTTP is nil (default 30s). A
	// pool's batch polls are ordinary requests, so this is also how long a
	// backend that stops answering mid-shard, with its connections still
	// open, can hold the shard before it fails over.
	Timeout time.Duration
	// Retries is how many times a failed request is retried (default 4).
	// Only transport errors, 429 and 5xx responses are retried; the
	// protocol's idempotence makes every retry safe.
	Retries int
	// Backoff is the first retry delay (default 100ms); each subsequent
	// retry doubles it, and every delay gets up to 50% uniform jitter so
	// synchronized clients do not stampede a recovering server.
	Backoff time.Duration
	// Logf, when non-nil, receives retry diagnostics.
	Logf func(format string, args ...interface{})

	once sync.Once
	http *http.Client
	rng  *rand.Rand
	mu   sync.Mutex // guards rng
}

func (c *Client) init() {
	c.once.Do(func() {
		c.http = c.HTTP
		if c.http == nil {
			to := c.Timeout
			if to <= 0 {
				to = 30 * time.Second
			}
			c.http = &http.Client{Timeout: to}
		}
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	})
}

func (c *Client) logf(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 4
}

// delay returns the backoff before retry attempt n (0-based), jittered.
func (c *Client) delay(n int) time.Duration {
	d := c.Backoff
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	d <<= uint(n)
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d + j
}

// do performs one request with retries, decoding a 2xx JSON body into out
// (when non-nil). Transport failures, truncated bodies, 429 and 5xx retry
// with exponential backoff + jitter (Retry-After, when the server sent
// one, floors the delay); other non-2xx statuses return a *StatusError at
// once. A done ctx aborts immediately — including out of a backoff sleep.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	c.init()
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var last error
	for attempt := 0; ; attempt++ {
		err := c.once2xx(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("mcmserve: %s %s: %w", method, path, ctx.Err())
		}
		if !Retryable(err) {
			return err
		}
		last = err
		if attempt >= c.retries() {
			return fmt.Errorf("mcmserve: %s %s failed after %d attempts: %w",
				method, path, attempt+1, last)
		}
		d := c.delay(attempt)
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > d {
			d = se.RetryAfter
		}
		c.logf("mcmserve: %s %s attempt %d failed (%v), retrying in %v",
			method, path, attempt+1, err, d)
		if serr := sleepCtx(ctx, d); serr != nil {
			return fmt.Errorf("mcmserve: %s %s: %w", method, path, serr)
		}
	}
}

func (c *Client) once2xx(ctx context.Context, method, path string, body []byte, out interface{}) error {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.BaseURL, "/")+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb ErrorBody
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(data, &eb) != nil || eb.Error == "" {
			eb.Error = strings.TrimSpace(string(data))
		}
		se := &StatusError{Code: resp.StatusCode, Msg: eb.Error}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			se.RetryAfter = time.Duration(ra) * time.Second
		}
		return se
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A decode failure on a 2xx is transport damage (a truncated or
		// torn body), not a server answer: report it as retryable.
		return fmt.Errorf("decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Submit posts a manifest and returns the batch status — job IDs assigned,
// warm cells already done with SourceStore. Safe to re-call on any failure.
func (c *Client) Submit(ctx context.Context, m Manifest) (*BatchStatus, error) {
	var bs BatchStatus
	if err := c.do(ctx, http.MethodPost, "/v1/batches", m, &bs); err != nil {
		return nil, err
	}
	return &bs, nil
}

// Batch fetches the current status of a batch.
func (c *Client) Batch(ctx context.Context, id string) (*BatchStatus, error) {
	var bs BatchStatus
	if err := c.do(ctx, http.MethodGet, "/v1/batches/"+id, nil, &bs); err != nil {
		return nil, err
	}
	return &bs, nil
}

// Result fetches the result of a done job.
func (c *Client) Result(ctx context.Context, id string) (*core.Result, error) {
	var res core.Result
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Readyz reports whether the server is accepting work (GET /readyz). It
// makes one attempt — no retries, no backoff — because a health check that
// retries is just a slow way to say "down". A draining or saturated server
// fails this while still passing /healthz — the signal a pool uses to route
// around it.
func (c *Client) Readyz(ctx context.Context) error {
	c.init()
	return c.once2xx(ctx, http.MethodGet, "/readyz", nil, nil)
}
