package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// watchIdleDefault is how long a watch stream may go silent before the
// client declares it dead and reconnects. The server resends a snapshot
// every couple of seconds as a keepalive, so a healthy-but-quiet batch
// never trips this; a half-open TCP connection (backend died, no FIN)
// does.
const watchIdleDefault = 15 * time.Second

// streamClient is the HTTP client for watch streams: same transport as
// the regular client but no overall timeout, because a watch legitimately
// lasts as long as the batch runs. Liveness comes from the idle watchdog
// instead.
func (c *Client) streamClient() *http.Client {
	c.init()
	return &http.Client{Transport: c.http.Transport}
}

func (c *Client) watchIdle() time.Duration {
	if c.WatchIdleTimeout > 0 {
		return c.WatchIdleTimeout
	}
	return watchIdleDefault
}

// WatchBatch follows a batch via the server's NDJSON watch stream until
// every job is terminal, calling onUpdate (when non-nil) with each
// snapshot. It is resumable: the client tracks the last-seen state of
// every job, and after a mid-stream disconnect — a truncated line, a
// severed connection, a silent half-open socket caught by the idle
// watchdog — it reconnects with backoff and reconciles, so a job never
// regresses out of a terminal state no matter how torn the stream was.
// When the stream keeps dying without delivering a single snapshot, the
// client degrades to plain polling rather than giving up: a broken
// streaming path must not make batch completion unobservable.
//
// Non-retryable server answers (404 for an unknown batch, most 4xx)
// return a *StatusError so a multi-backend caller can fail over.
func (c *Client) WatchBatch(ctx context.Context, id string, onUpdate func(*BatchStatus)) (*BatchStatus, error) {
	c.init()
	seen := map[string]JobStatus{} // terminal states already observed
	// reconcile patches a snapshot so terminal states stick, and records
	// new ones. A reconnect can land on a server whose in-memory view is
	// behind the one that died (shared store, fresh process); trusting it
	// blindly would flip done jobs back to queued.
	reconcile := func(bs *BatchStatus) {
		done := true
		for i := range bs.Jobs {
			js := &bs.Jobs[i]
			if prev, ok := seen[js.ID]; ok && !Terminal(js.State) {
				*js = prev
			}
			if Terminal(js.State) {
				seen[js.ID] = *js
			} else {
				done = false
			}
		}
		if done && len(bs.Jobs) > 0 {
			bs.Done = true
		}
	}

	failures := 0 // consecutive snapshot-less connection attempts
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		last, err := c.watchOnce(ctx, id, reconcile, onUpdate)
		if last != nil && last.Done {
			return last, nil
		}
		if err != nil && !Retryable(err) {
			return nil, err
		}
		if last != nil {
			failures = 0
		} else {
			failures++
		}
		if failures > c.retries() {
			c.logf("mcmserve: watch %s: stream dead after %d attempts, polling instead", id, failures)
			return c.pollBatch(ctx, id, reconcile, onUpdate)
		}
		d := c.delay(min(failures, 3))
		c.logf("mcmserve: watch %s disconnected (%v), reconnecting in %v", id, err, d)
		if serr := sleepCtx(ctx, d); serr != nil {
			return nil, serr
		}
	}
}

// watchOnce runs one watch stream connection: it returns the last
// reconciled snapshot it decoded (nil if none arrived) and the error that
// ended the stream. A stream that ends cleanly on a done batch returns
// (final, nil).
func (c *Client) watchOnce(ctx context.Context, id string, reconcile func(*BatchStatus), onUpdate func(*BatchStatus)) (*BatchStatus, error) {
	// The watchdog cancels this request context when the stream goes
	// idle, which surfaces as a read error below — indistinguishable from
	// any other disconnect, which is the point.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		strings.TrimSuffix(c.BaseURL, "/")+"/v1/batches/"+id+"/watch", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.streamClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb ErrorBody
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(data, &eb) != nil || eb.Error == "" {
			eb.Error = strings.TrimSpace(string(data))
		}
		return nil, &StatusError{Code: resp.StatusCode, Msg: eb.Error}
	}

	activity := make(chan struct{}, 1)
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		idle := time.NewTimer(c.watchIdle())
		defer idle.Stop()
		for {
			select {
			case <-activity:
				if !idle.Stop() {
					<-idle.C
				}
				idle.Reset(c.watchIdle())
			case <-idle.C:
				cancel()
				return
			case <-watchdogDone:
				return
			}
		}
	}()

	dec := json.NewDecoder(resp.Body)
	var last *BatchStatus
	for {
		var bs BatchStatus
		if err := dec.Decode(&bs); err != nil {
			if err == io.EOF && last != nil && last.Done {
				return last, nil
			}
			return last, fmt.Errorf("watch stream %s: %w", id, err)
		}
		select {
		case activity <- struct{}{}:
		default:
		}
		reconcile(&bs)
		if onUpdate != nil {
			onUpdate(&bs)
		}
		last = &bs
		if bs.Done {
			return last, nil
		}
	}
}

// pollBatch is the degraded mode: plain GET polling with gentle backoff,
// same reconciliation and callbacks as the stream.
func (c *Client) pollBatch(ctx context.Context, id string, reconcile func(*BatchStatus), onUpdate func(*BatchStatus)) (*BatchStatus, error) {
	d := 100 * time.Millisecond
	for {
		bs, err := c.Batch(ctx, id)
		if err != nil {
			return nil, err
		}
		reconcile(bs)
		if onUpdate != nil {
			onUpdate(bs)
		}
		if bs.Done {
			return bs, nil
		}
		if err := sleepCtx(ctx, d); err != nil {
			return nil, err
		}
		if d < 2*time.Second {
			d *= 2
		}
	}
}
