package client

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"mcmgpu/internal/core"
)

// Backend is one mcmserve instance in a Pool: its client plus the circuit
// breaker guarding it.
type Backend struct {
	URL     string
	Client  *Client
	Breaker *Breaker
}

// PoolStats counts the pool's fault-handling work. All zeros on a healthy
// fleet; tests use the counters to prove failover and hedging actually
// engaged (anti-vacuity).
type PoolStats struct {
	// Failovers is how many backend shard executions failed and had their
	// jobs routed elsewhere.
	Failovers uint64
	// Resubmits is how many job submissions were replayed on a later
	// round. Content-derived job IDs make every replay idempotent.
	Resubmits uint64
	// Hedged is how many result fetches fired a hedge request against a
	// second backend because the first was slow.
	Hedged uint64
}

// Pool executes manifests across several mcmserve backends sharing one
// run store. It shards distinct jobs across healthy backends, watches
// each shard's batch, and — because job IDs are content-derived and the
// store is shared — freely resubmits any shard whose backend dies
// mid-run: the surviving backends serve already-computed cells as store
// hits, so a failover never duplicates a simulation.
//
// Health is judged per backend: a readiness probe before every round plus
// a circuit breaker that opens after repeated failures and re-admits
// traffic through single jittered probes. Slow result fetches are hedged
// against a second backend; the first answer wins.
type Pool struct {
	Backends []*Backend
	// MaxRounds bounds the submit → watch → failover loop (default 10).
	MaxRounds int
	// HedgeAfter is how long a result fetch may dawdle before a hedge
	// fires at another backend (default 2s; <= 0 with 2+ backends still
	// defaults — set Backends to one entry to disable hedging).
	HedgeAfter time.Duration
	// ProbeInterval is the background health-probe cadence while a Run is
	// in flight (default 3s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each health probe (default 2s).
	ProbeTimeout time.Duration
	// Logf, when non-nil, receives pool diagnostics.
	Logf func(format string, args ...interface{})

	mu    sync.Mutex
	stats PoolStats
}

// NewPool builds a pool over the given backend URLs. base is a template
// (nil for defaults): its Retries, Backoff, Timeout, WatchIdleTimeout
// and Logf are copied into every backend's client.
func NewPool(urls []string, base *Client) *Pool {
	if base == nil {
		base = &Client{}
	}
	p := &Pool{Logf: base.Logf}
	for _, u := range urls {
		c := &Client{
			BaseURL:          u,
			HTTP:             base.HTTP,
			Timeout:          base.Timeout,
			Retries:          base.Retries,
			Backoff:          base.Backoff,
			WatchIdleTimeout: base.WatchIdleTimeout,
			Logf:             base.Logf,
		}
		p.Backends = append(p.Backends, &Backend{URL: u, Client: c, Breaker: &Breaker{}})
	}
	return p
}

// Stats returns a snapshot of the pool's fault-handling counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func (p *Pool) logf(format string, args ...interface{}) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

func (p *Pool) maxRounds() int {
	if p.MaxRounds > 0 {
		return p.MaxRounds
	}
	return 10
}

func (p *Pool) hedgeAfter() time.Duration {
	if p.HedgeAfter > 0 {
		return p.HedgeAfter
	}
	return 2 * time.Second
}

func (p *Pool) probeInterval() time.Duration {
	if p.ProbeInterval > 0 {
		return p.ProbeInterval
	}
	return 3 * time.Second
}

func (p *Pool) probeTimeout() time.Duration {
	if p.ProbeTimeout > 0 {
		return p.ProbeTimeout
	}
	return 2 * time.Second
}

// jobKey is the pool's local identity for a job request — the same
// content the server hashes into the job ID, so two requests with one key
// always map to one server-side job.
func jobKey(j JobRequest) string {
	return string(j.System) + "|" + j.Workload + "|" + strconv.FormatFloat(j.Scale, 'g', -1, 64)
}

// probe checks one backend's readiness and feeds the outcome to its
// breaker. Returns true when the backend can take work now.
func (p *Pool) probe(ctx context.Context, be *Backend) bool {
	pctx, cancel := context.WithTimeout(ctx, p.probeTimeout())
	defer cancel()
	err := be.Client.Readyz(pctx)
	be.Breaker.Record(err == nil)
	if err != nil {
		p.logf("pool: backend %s not ready: %v", be.URL, err)
	}
	return err == nil
}

// Run executes the manifest across the pool and returns manifest-ordered
// results and statuses: failed or canceled jobs leave a nil result slot,
// and callers inspect statuses for error rendering. Run fails only when jobs remain unfinished after every
// failover round — a single healthy backend is enough for it to succeed.
func (p *Pool) Run(ctx context.Context, m Manifest) ([]*core.Result, []JobStatus, error) {
	if len(p.Backends) == 0 {
		return nil, nil, fmt.Errorf("pool: no backends")
	}
	if len(m.Jobs) == 0 {
		return nil, nil, fmt.Errorf("pool: empty manifest")
	}

	// Distinct jobs in first-appearance order; the manifest may repeat a
	// cell and the server would dedupe anyway, so the pool shards each
	// distinct job exactly once.
	var keys []string
	reqs := map[string]JobRequest{}
	for _, j := range m.Jobs {
		k := jobKey(j)
		if _, ok := reqs[k]; !ok {
			keys = append(keys, k)
			reqs[k] = j
		}
	}

	var (
		mu       sync.Mutex
		statuses = map[string]JobStatus{}    // key → terminal status
		results  = map[string]*core.Result{} // key → fetched result
	)

	// Background prober: while the run is in flight, open breakers get
	// their half-open probe traffic from here, so a backend that recovers
	// mid-watch is ready for the next round or hedge without waiting for
	// round scheduling to rediscover it.
	probeCtx, stopProber := context.WithCancel(ctx)
	defer stopProber()
	go func() {
		for {
			if sleepCtx(probeCtx, p.probeInterval()) != nil {
				return
			}
			for _, be := range p.Backends {
				if be.Breaker.State() != BreakerClosed && be.Breaker.Allow() {
					p.probe(probeCtx, be)
				}
			}
		}
	}()

	for round := 0; round < p.maxRounds(); round++ {
		mu.Lock()
		var remaining []string
		for _, k := range keys {
			if _, ok := statuses[k]; !ok {
				remaining = append(remaining, k)
			}
		}
		mu.Unlock()
		if len(remaining) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("pool: %w", err)
		}

		// Select backends: breaker must admit, readiness probe must pass.
		var ready []*Backend
		for _, be := range p.Backends {
			if !be.Breaker.Allow() {
				continue
			}
			if p.probe(ctx, be) {
				ready = append(ready, be)
			}
		}
		if len(ready) == 0 {
			d := 500 * time.Millisecond << uint(min(round, 4))
			p.logf("pool: no ready backends (round %d), retrying in %v", round, d)
			if err := sleepCtx(ctx, d); err != nil {
				return nil, nil, fmt.Errorf("pool: %w", err)
			}
			continue
		}
		if round > 0 {
			p.mu.Lock()
			p.stats.Resubmits += uint64(len(remaining))
			p.mu.Unlock()
			p.logf("pool: round %d resubmitting %d jobs across %d backends",
				round, len(remaining), len(ready))
		}

		// Shard remaining jobs round-robin and run every shard
		// concurrently: submit, watch to completion, fetch results.
		shards := make([][]string, len(ready))
		for i, k := range remaining {
			shards[i%len(ready)] = append(shards[i%len(ready)], k)
		}
		var wg sync.WaitGroup
		for bi, shard := range shards {
			if len(shard) == 0 {
				continue
			}
			wg.Add(1)
			go func(be *Backend, shard []string) {
				defer wg.Done()
				p.runShard(ctx, be, shard, reqs, m, &mu, statuses, results)
			}(ready[bi], shard)
		}
		wg.Wait()
	}

	// Assemble in manifest order.
	out := make([]*core.Result, len(m.Jobs))
	sts := make([]JobStatus, len(m.Jobs))
	var missing []string
	mu.Lock()
	for i, j := range m.Jobs {
		k := jobKey(j)
		js, ok := statuses[k]
		if !ok {
			missing = append(missing, j.Workload)
			continue
		}
		sts[i] = js
		if js.State == StateDone {
			out[i] = results[k]
		}
	}
	mu.Unlock()
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, nil, fmt.Errorf("pool: %d jobs unfinished after %d rounds (first: %s)",
			len(missing), p.maxRounds(), missing[0])
	}
	return out, sts, nil
}

// runShard runs one backend's share of a round: submit the shard
// manifest, watch the batch to completion, fetch every done job's result
// (hedged), and record terminal statuses. Any failure leaves the shard's
// unfinished jobs in remaining for the next round.
func (p *Pool) runShard(ctx context.Context, be *Backend, shard []string, reqs map[string]JobRequest, m Manifest, mu *sync.Mutex, statuses map[string]JobStatus, results map[string]*core.Result) {
	sm := Manifest{MaxEvents: m.MaxEvents, MaxCycles: m.MaxCycles, Audit: m.Audit}
	for _, k := range shard {
		sm.Jobs = append(sm.Jobs, reqs[k])
	}
	bs, err := be.Client.Submit(ctx, sm)
	if err != nil {
		p.shardFailed(be, "submit", err)
		return
	}
	final, err := be.Client.WatchBatch(ctx, bs.ID, nil)
	if err != nil {
		p.shardFailed(be, "watch", err)
		return
	}
	be.Breaker.Record(true)

	// Fetch results before recording statuses: a job is only "finished"
	// for the pool once its result is actually in hand, so a backend that
	// dies between done and fetch still fails over cleanly.
	for i, js := range final.Jobs {
		k := shard[i]
		if js.State != StateDone {
			mu.Lock()
			statuses[k] = js
			mu.Unlock()
			continue
		}
		res, err := p.fetchResult(ctx, js.ID, be)
		if err != nil {
			p.shardFailed(be, "result "+js.ID, err)
			continue
		}
		mu.Lock()
		statuses[k] = js
		results[k] = res
		mu.Unlock()
	}
}

func (p *Pool) shardFailed(be *Backend, op string, err error) {
	be.Breaker.Record(false)
	p.mu.Lock()
	p.stats.Failovers++
	p.mu.Unlock()
	p.logf("pool: backend %s %s failed, will fail over: %v", be.URL, op, err)
}

// otherReady returns a hedge candidate: any backend other than primary
// whose breaker is closed. nil when the pool has no second opinion.
func (p *Pool) otherReady(primary *Backend) *Backend {
	for _, be := range p.Backends {
		if be != primary && be.Breaker.State() == BreakerClosed {
			return be
		}
	}
	return nil
}

// fetchResult fetches one job result from primary, hedging against
// another backend when primary dawdles past HedgeAfter — every backend
// shares the store, so any of them can serve any job ID. The first
// success wins and cancels the loser; a hedge failure is never fatal
// while the other request is still in flight.
func (p *Pool) fetchResult(ctx context.Context, id string, primary *Backend) (*core.Result, error) {
	secondary := p.otherReady(primary)
	if secondary == nil {
		return primary.Client.Result(ctx, id)
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 2)
	fetch := func(be *Backend) {
		res, err := be.Client.Result(fctx, id)
		ch <- outcome{res, err}
	}
	go fetch(primary)
	inflight := 1
	hedged := false
	timer := time.NewTimer(p.hedgeAfter())
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				return o.res, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if !hedged {
				// Primary failed outright: fire the fallback immediately
				// rather than waiting out the hedge timer.
				hedged = true
				inflight++
				go fetch(secondary)
				continue
			}
			if inflight == 0 {
				return nil, firstErr
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				inflight++
				p.mu.Lock()
				p.stats.Hedged++
				p.mu.Unlock()
				p.logf("pool: hedging result %s via %s", id, secondary.URL)
				go fetch(secondary)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
