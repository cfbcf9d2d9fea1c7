package runner

import (
	"mcmgpu/internal/analytic"
	"mcmgpu/internal/config"
)

// This file is the runner's analytic fast path: the same Job values that
// Run simulates can be evaluated through the closed-form estimator
// (internal/analytic) in microseconds instead of seconds. Estimates are not
// memoized: one costs about as much as deriving a cache key for it would.

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
		est, err := estimateJob(j, ests)
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

// estimateJob evaluates one job on its config's estimator, building the
// estimator on the config's first job.
func estimateJob(j Job, ests map[*config.Config]*analytic.Estimator) (*analytic.Estimate, error) {
	e, ok := ests[j.Config]
	if !ok {
		var err error
		if e, err = analytic.NewEstimator(j.Config); err != nil {
			return nil, err
		}
		ests[j.Config] = e
	}
	return e.Estimate(j.Spec, j.Scale)
}
