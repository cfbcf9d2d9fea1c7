// Package runner executes simulation jobs across a pool of goroutines and
// memoizes their results process-wide.
//
// Every simulated Machine is fully independent — one event queue, no shared
// mutable state — so a (config, workload, scale) job list is embarrassingly
// parallel. The runner fans jobs across workers and assembles results by job
// index, which makes the output a pure function of the job list: parallel
// execution is byte-identical to sequential execution. That determinism is
// the correctness contract of this layer, asserted by the package tests and
// by TestExperimentsDeterministicAcrossWorkers at the facade.
//
// The optional Cache memoizes results under a canonical fingerprint of the
// full architectural configuration plus the workload spec and scale, so an
// experiment sweep that revisits a system (every figure driver re-runs the
// baseline MCM suite) performs each distinct simulation exactly once per
// process. Entries are single-flight: concurrent requests for the same key
// share one simulation rather than racing to duplicate it.
package runner

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/engine"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/metrics"
	"mcmgpu/internal/runstore"
	"mcmgpu/internal/workload"
)

// Job is one simulation: a workload on a machine at a given scale.
type Job struct {
	Config *config.Config
	Spec   *workload.Spec
	// Scale multiplies per-warp work and footprints; values <= 0 or == 1
	// run the spec at full size.
	Scale float64
}

// key returns the memoization key: the architectural fingerprint of the
// machine (Name excluded), the full spec fingerprint, and the scale.
func (j Job) key() string {
	scale := j.Scale
	if scale <= 0 {
		scale = 1
	}
	return fmt.Sprintf("%s|%s|%g", j.Config.Fingerprint(), j.Spec.Fingerprint(), scale)
}

// run performs the simulation under the given bounds. The config is cloned
// so concurrent jobs sharing one *Config can never observe each other
// through it.
func (j Job) run(opts core.RunOptions) (*core.Result, error) {
	spec := j.Spec
	if j.Scale > 0 && j.Scale != 1 {
		spec = spec.Scaled(j.Scale)
	}
	m, err := core.New(j.Config.Clone())
	if err != nil {
		return nil, err
	}
	return m.RunWith(spec, opts)
}

// PanicError is a panic recovered from a simulation job, carrying the
// panicking goroutine's stack. A panic is a deterministic property of its
// (config, workload, fault) key, so PanicErrors memoize like any other
// error.
type PanicError struct {
	// Value is the value the job panicked with.
	Value interface{}
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// Error renders the panic value; the stack is kept out of the one-liner and
// available on the struct.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// JobError is one failed job: the job's identity plus the underlying error
// (which may be a *PanicError or a *core.SimError).
type JobError struct {
	// Index is the job's position in the Run job list.
	Index int
	// Workload and Config name the failing job.
	Workload, Config string
	// Err is the underlying failure.
	Err error
}

// Error names the failing job the way the runner always has: "workload on
// config: cause".
func (e *JobError) Error() string {
	return fmt.Sprintf("%s on %s: %v", e.Workload, e.Config, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// JobErrors aggregates every failed job of one Run call, ordered by job
// index.
type JobErrors []*JobError

// Error summarizes: the lowest-indexed failure, plus a count when there are
// more.
func (es JobErrors) Error() string {
	if len(es) == 0 {
		return "runner: no job errors"
	}
	if len(es) == 1 {
		return es[0].Error()
	}
	return fmt.Sprintf("%s (and %d more failed jobs)", es[0].Error(), len(es)-1)
}

// Unwrap exposes the individual job errors to errors.Is/As.
func (es JobErrors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// Runner executes job lists. The zero value runs with GOMAXPROCS workers,
// no memoization, no bounds, and collect-errors semantics.
type Runner struct {
	// Workers is the goroutine pool size; <= 0 means runtime.GOMAXPROCS(0).
	// Workers == 1 is strictly sequential.
	Workers int
	// Cache, when non-nil, memoizes results across Run calls.
	Cache *Cache
	// Store, when non-nil, adds a durable tier under the in-process cache:
	// each job first consults the on-disk content-addressed store (a hit
	// skips the simulation and, when metrics are armed, replays the stored
	// sample stream), and each freshly simulated success is persisted —
	// results only; errors are never stored, mirroring how the memo cache
	// evicts transient failures. Store I/O happens inside the Cache's
	// single-flight slot, so concurrent requests for one key perform at
	// most one store read or write. Store failures degrade to compute: an
	// unreadable entry is a miss (logged by the store), never a job error.
	Store *runstore.Store
	// EstCache, when non-nil, memoizes closed-form estimates across
	// Estimates calls (see estimate.go). Predictions and simulation results
	// never share a cache: the estimate cache is typed to *analytic.Estimate
	// and keys under an "est|" prefix.
	EstCache *EstCache
	// FailFast stops claiming new jobs after the first failure. When false
	// (the default), every job runs and Run returns partial results plus a
	// JobErrors aggregate — one pathological cell degrades to an error
	// instead of aborting the sweep.
	FailFast bool
	// Limits bounds every job (budgets, wall deadline, context); the zero
	// value imposes none. Event/cycle budgets participate in the cache key;
	// wall-clock and cancellation failures are never memoized.
	Limits core.RunOptions
	// Fault is a deterministic fault-injection plan applied to the jobs it
	// matches (see faultinject.Plan.Matches); the zero value injects
	// nothing. Faulted jobs get their own cache keys, so injected failures
	// never contaminate unfaulted results.
	Fault faultinject.Plan
	// Metrics, when non-nil with a writer, attaches a time-series sampler to
	// every job. Each job samples into its own buffer; after all jobs finish
	// the buffers of successful jobs are flushed to Metrics.W in job order,
	// so the stream is identical for any Workers setting. Sampled jobs get
	// per-(key, index) cache entries — mirroring how -audit and fault plans
	// key — so every slot of a job list emits its own stream (duplicates
	// included), while re-running the same list against a warm cache
	// cache-hits and emits nothing rather than replaying streams.
	Metrics *MetricsOptions
}

// MetricsOptions configures per-job time-series sampling (see
// internal/metrics).
type MetricsOptions struct {
	// Interval is the sampling interval in cycles (0 = metrics.DefaultInterval).
	Interval uint64
	// W receives the concatenated streams of all successful jobs, in job
	// order. A nil W disables sampling.
	W io.Writer
	// CSV selects CSV output instead of NDJSON. One header row is written
	// for the whole stream regardless of how many jobs contribute.
	CSV bool

	// wroteHeader tracks the single CSV header across Run calls sharing
	// this options value. Flushing happens on the Run caller's goroutine,
	// so no lock is needed.
	wroteHeader bool
}

// interval returns the effective sampling interval.
func (mo *MetricsOptions) interval() engine.Cycle {
	if mo.Interval > 0 {
		return engine.Cycle(mo.Interval)
	}
	return metrics.DefaultInterval
}

// enabled reports whether sampling is armed.
func (mo *MetricsOptions) enabled() bool { return mo != nil && mo.W != nil }

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the jobs and returns results in job order. A failing job
// leaves a nil slot in the results and contributes a *JobError to the
// returned JobErrors aggregate; every other slot is still filled unless
// FailFast cut the run short. A panic in any job (or any subsystem under
// it) is recovered into the job's error — it fails that job only.
func (r *Runner) Run(jobs []Job) ([]*core.Result, error) {
	results := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	var bufs []*bytes.Buffer
	if r.Metrics.enabled() {
		bufs = make([]*bytes.Buffer, len(jobs))
	}
	n := r.workers()
	if n > len(jobs) {
		n = len(jobs)
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || (r.FailFast && failed.Load()) {
					return
				}
				var buf *bytes.Buffer
				if bufs != nil {
					buf = &bytes.Buffer{}
					bufs[i] = buf
				}
				res, err := r.runJob(i, jobs[i], buf)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if bufs != nil {
		if err := r.flushMetrics(bufs, errs); err != nil {
			return results, fmt.Errorf("runner: metrics export: %w", err)
		}
	}
	var jerrs JobErrors
	for i, err := range errs {
		if err != nil {
			jerrs = append(jerrs, &JobError{
				Index:    i,
				Workload: jobs[i].Spec.Name,
				Config:   jobs[i].Config.Name,
				Err:      err,
			})
		}
	}
	if len(jerrs) > 0 {
		return results, jerrs
	}
	return results, nil
}

// opts returns the bounds for one job: the shared limits, plus the fault
// plan when it matches the job's workload, plus a sampler writing to buf
// when metrics are armed.
func (r *Runner) opts(j Job, buf *bytes.Buffer) core.RunOptions {
	opts := r.Limits
	if r.Fault.Matches(j.Spec.Name) {
		opts.Fault = r.Fault
	}
	if buf != nil {
		rec := metrics.NewRecorder(buf, r.Metrics.interval(), r.Metrics.CSV)
		rec.OmitCSVHeader() // the flush phase writes one header for the stream
		opts.Metrics = rec
	}
	return opts
}

// flushMetrics concatenates the per-job sample streams to Metrics.W in job
// order, skipping failed jobs (their streams are partial) and cache hits
// (their buffers are empty — the stream was emitted when the entry was
// populated). Runs on the Run caller's goroutine after all workers join.
func (r *Runner) flushMetrics(bufs []*bytes.Buffer, errs []error) error {
	if r.Metrics.CSV && !r.Metrics.wroteHeader {
		if _, err := io.WriteString(r.Metrics.W, metrics.CSVHeader+"\n"); err != nil {
			return err
		}
		r.Metrics.wroteHeader = true
	}
	for i, buf := range bufs {
		if buf == nil || errs[i] != nil {
			continue
		}
		if _, err := r.Metrics.W.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// StoreKey is the durable identity of one job under this runner's settings:
// the job's (config, workload, scale) fingerprint extended with whatever
// bounds change the outcome deterministically — event/cycle budgets, a
// matching fault plan, and the invariant auditor (auditing never changes a
// successful result, but it can deterministically turn a corrupted run into
// an error, so audited and unaudited runs must not share entries). When
// metrics are armed the sampling interval joins the key too, because the
// stored artifact then includes the sample stream. Wall deadlines and
// contexts are excluded — their failures depend on wall time, not the key.
//
// This is the key jobs are stored under in a Runner.Store and the key
// cmd/mcmserve derives job IDs from; it deliberately omits the per-slot
// |job:N suffix the in-process memo key carries, so every occurrence of one
// simulation in any job list, in any process, maps to one store entry.
func (r *Runner) StoreKey(j Job) string {
	k := j.key()
	if r.Limits.MaxEvents > 0 || r.Limits.MaxCycles > 0 {
		k = fmt.Sprintf("%s|me%d|mc%d", k, r.Limits.MaxEvents, r.Limits.MaxCycles)
	}
	if r.Fault.Matches(j.Spec.Name) {
		k += "|fault:" + r.Fault.String()
	}
	if r.Limits.Audit || audit.Forced() {
		k += "|audit"
	}
	if r.Metrics.enabled() {
		k += fmt.Sprintf("|metrics:%d", r.Metrics.interval())
	}
	return k
}

// jobKey is the in-process memoization key: StoreKey, plus — for sampled
// jobs only — the job index. The index keeps two occurrences of the same
// simulation in one job list from coalescing onto a single memo entry (each
// must decide independently whether its buffer streams), while repeats of
// the same index across Run calls still cache-hit and emit nothing.
func (r *Runner) jobKey(i int, j Job) string {
	k := r.StoreKey(j)
	if r.Metrics.enabled() {
		k += fmt.Sprintf("|job:%d", i)
	}
	return k
}

// safeRun executes the job with panic containment: a panic from any
// subsystem under the run is recovered into a *PanicError instead of
// killing the worker (and with it the whole sweep).
func safeRun(j Job, opts core.RunOptions) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: string(debug.Stack())}
		}
	}()
	return j.run(opts)
}

func (r *Runner) runJob(i int, j Job, buf *bytes.Buffer) (*core.Result, error) {
	opts := r.opts(j, buf)
	run := func() (*core.Result, error) { return safeRun(j, opts) }
	if r.Store != nil {
		run = r.storeTier(r.StoreKey(j), buf, run)
	}
	if r.Cache == nil {
		return run()
	}
	return r.Cache.do(r.jobKey(i, j), run)
}

// storeTier wraps a job's compute function with the durable store: a clean
// hit returns the stored result (replaying its metrics stream into buf so a
// warm process emits the same bytes a cold one would); everything else —
// miss, quarantined entry, or environmental store error — falls through to
// compute, and a successful compute is persisted best-effort. Put failures
// are counted by the store and logged through its logger but never fail the
// job: durability is an optimization, the simulation result is the product.
func (r *Runner) storeTier(key string, buf *bytes.Buffer, run func() (*core.Result, error)) func() (*core.Result, error) {
	return func() (*core.Result, error) {
		if res, stream, ok, err := r.Store.Get(key); err == nil && ok {
			if buf != nil {
				buf.Write(stream)
			}
			return res, nil
		}
		res, err := run()
		if err == nil {
			var stream []byte
			if buf != nil {
				stream = buf.Bytes()
			}
			_ = r.Store.Put(key, res, stream)
		}
		return res, err
	}
}

// RunSuite executes the given workloads on one configuration and returns
// results keyed by workload name. Failed jobs are absent from the map and
// reported through the returned JobErrors, so callers in collect-errors
// mode can render the holes instead of aborting.
func (r *Runner) RunSuite(cfg *config.Config, specs []*workload.Spec, scale float64) (map[string]*core.Result, error) {
	jobs := make([]Job, len(specs))
	for i, s := range specs {
		jobs[i] = Job{Config: cfg, Spec: s, Scale: scale}
	}
	results, err := r.Run(jobs)
	out := make(map[string]*core.Result, len(specs))
	for i, s := range specs {
		if results[i] != nil {
			out[s.Name] = results[i]
		}
	}
	return out, err
}

// Stats reports cache effectiveness.
type Stats struct {
	// Hits counts requests satisfied by (or coalesced onto) an existing
	// entry; Misses counts requests that performed a simulation.
	Hits, Misses uint64
	// Entries is the number of distinct (config, workload, scale) results
	// held.
	Entries int
}

// Simulations returns how many simulations the cache actually executed.
func (s Stats) Simulations() uint64 { return s.Misses }

// Cache is a concurrency-safe, single-flight memoization table for
// simulation results. Results are returned as copies so callers can never
// alias each other through the cache.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type entry struct {
	once sync.Once
	res  *core.Result
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*entry{}}
}

// do returns the memoized result for key, running fn at most once per key.
// Deterministic errors are memoized too: a config that fails validation (or
// deterministically panics, or exhausts an event budget) fails the same way
// on every retry, so re-running it buys nothing. Transient errors — wall
// deadlines and cancellations, whose outcome depends on wall time rather
// than the key — are returned to the requests that coalesced onto them but
// evicted immediately, so a later retry gets a fresh simulation instead of
// a poisoned entry. fn must not panic; the runner's safeRun wrapper
// guarantees this.
func (c *Cache) do(key string, fn func() (*core.Result, error)) (*core.Result, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &entry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.res, e.err = fn() })
	if e.err != nil {
		if isTransient(e.err) {
			c.mu.Lock()
			// Pointer comparison: only evict this entry, never a fresh
			// replacement another goroutine already installed.
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		return nil, e.err
	}
	out := *e.res
	return &out, nil
}

// isTransient reports whether err depends on wall time rather than on the
// simulation key: wall-deadline trips and context cancellations can succeed
// on retry, so memoizing them would poison the cache. This is the cache's
// view of the shared Classify partition.
func isTransient(err error) bool {
	return !Classify(err).Deterministic()
}

// Stats returns a snapshot of cache effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// Reset discards all entries and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.entries = map[string]*entry{}
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// shared is the process-wide cache used by the experiment drivers: one
// instance so repeated reference suites (the baseline MCM, the 6 TB/s
// reference, the monolithic bounds) are simulated once per process no matter
// how many experiments an invocation runs.
var shared = NewCache()

// Shared returns the process-wide run cache.
func Shared() *Cache { return shared }
