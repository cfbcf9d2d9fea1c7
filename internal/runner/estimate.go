package runner

import (
	"sync"

	"mcmgpu/internal/analytic"
	"mcmgpu/internal/config"
)

// This file is the runner's analytic fast path: the same Job values that
// Run simulates can be evaluated through the closed-form estimator
// (internal/analytic) in microseconds instead of seconds. Estimates share
// the simulation cache's fingerprint-derived keys under an "est|" prefix —
// one key derivation for both execution paths — but live in their own typed
// cache, so a two-phase sweep that estimates the whole grid and then
// simulates the survivors never confuses a prediction with a measurement.

// estKey is the estimate-cache key: the simulation key under an "est|"
// prefix. Run bounds, fault plans and metrics sampling do not apply to the
// closed form, so they are deliberately absent.
func (j Job) estKey() string { return "est|" + j.key() }

// Estimates evaluates every job through the closed-form estimator and
// returns predictions in job order, mirroring Run's contract: a failing job
// leaves a nil slot and contributes a *JobError to the JobErrors aggregate.
// Evaluation is sequential — the estimator is orders of magnitude faster
// than simulation, so fanning it across workers would cost more than it
// buys — and estimators are built once per distinct *Config in the list.
func (r *Runner) Estimates(jobs []Job) ([]*analytic.Estimate, error) {
	out := make([]*analytic.Estimate, len(jobs))
	ests := map[*config.Config]*analytic.Estimator{}
	var jerrs JobErrors
	for i, j := range jobs {
		est, err := r.estimateJob(j, ests)
		if err != nil {
			jerrs = append(jerrs, &JobError{
				Index:    i,
				Workload: j.Spec.Name,
				Config:   j.Config.Name,
				Err:      err,
			})
			if r.FailFast {
				break
			}
			continue
		}
		out[i] = est
	}
	if len(jerrs) > 0 {
		return out, jerrs
	}
	return out, nil
}

func (r *Runner) estimateJob(j Job, ests map[*config.Config]*analytic.Estimator) (*analytic.Estimate, error) {
	eval := func() (*analytic.Estimate, error) {
		e, ok := ests[j.Config]
		if !ok {
			var err error
			if e, err = analytic.NewEstimator(j.Config); err != nil {
				return nil, err
			}
			ests[j.Config] = e
		}
		scale := j.Scale
		if scale <= 0 {
			scale = 1
		}
		return e.Estimate(j.Spec, scale)
	}
	if r.EstCache == nil {
		return eval()
	}
	return r.EstCache.do(j.estKey(), eval)
}

// EstCache memoizes closed-form estimates. Like the simulation Cache it
// returns copies and memoizes deterministic errors; unlike it there is no
// single-flight machinery, because an estimate costs microseconds.
type EstCache struct {
	mu      sync.Mutex
	entries map[string]estEntry
}

type estEntry struct {
	est *analytic.Estimate
	err error
}

// NewEstCache returns an empty estimate cache.
func NewEstCache() *EstCache {
	return &EstCache{entries: map[string]estEntry{}}
}

// do returns the memoized estimate for key, evaluating fn on first request.
func (c *EstCache) do(key string, fn func() (*analytic.Estimate, error)) (*analytic.Estimate, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		e.est, e.err = fn()
		c.mu.Lock()
		c.entries[key] = e
		c.mu.Unlock()
	}
	if e.err != nil {
		return nil, e.err
	}
	out := *e.est
	return &out, nil
}

// estSharedCache is the process-wide estimate cache, the analytic twin of
// the shared simulation cache.
var estSharedCache = NewEstCache()

// SharedEstimates returns the process-wide estimate cache.
func SharedEstimates() *EstCache { return estSharedCache }
