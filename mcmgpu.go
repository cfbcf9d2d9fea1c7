// Package mcmgpu is a simulator for Multi-Chip-Module GPUs, reproducing
// "MCM-GPU: Multi-Chip-Module GPUs for Continued Performance Scalability"
// (Arunkumar et al., ISCA 2017).
//
// The package lets you build the paper's systems — the 4-GPM MCM-GPU with
// its locality optimizations (GPM-side L1.5 cache, distributed CTA
// scheduling, first-touch page placement), monolithic GPUs from 32 to 256
// SMs, and the two-GPU board-level system — and run the paper's 48
// synthetic workloads on them:
//
//	res, err := mcmgpu.Run(mcmgpu.OptimizedMCM(), mcmgpu.MustWorkload("Stream"))
//
// Experiment drivers regenerate every table and figure of the paper's
// evaluation; see Experiments and cmd/experiments.
package mcmgpu

import (
	"errors"

	"mcmgpu/internal/analytic"
	"mcmgpu/internal/audit"
	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/report"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore"
	"mcmgpu/internal/workload"
)

// Re-exported model types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Config describes one simulated GPU system.
	Config = config.Config
	// Result summarizes one workload execution.
	Result = core.Result
	// Spec describes one synthetic workload.
	Spec = workload.Spec
	// Table is a renderable experiment result.
	Table = report.Table
	// AnalyticModel is the Section 3.3.1 closed-form bandwidth model.
	AnalyticModel = analytic.Model
	// Estimate is one closed-form performance prediction: cycles, IPC,
	// per-level hit rates, inter-module traffic and DRAM demand for a
	// (config, workload) pair — the fast path cmd/sweep scores grids with.
	Estimate = analytic.Estimate
	// Estimator evaluates Estimates against one configuration; build with
	// NewEstimator.
	Estimator = analytic.Estimator
	// RunOptions bounds one run: context, event/cycle budgets, wall
	// deadline, fault plan. The zero value imposes no limits.
	RunOptions = core.RunOptions
	// SimError reports a run terminated by a budget, deadline, or
	// cancellation, with a diagnosis snapshot of the machine.
	SimError = core.SimError
	// JobError is one failed simulation job (its key plus the cause).
	JobError = runner.JobError
	// JobErrors aggregates every failed job of a batch.
	JobErrors = runner.JobErrors
	// FaultPlan is a deterministic fault-injection plan (tests, CI smoke).
	FaultPlan = faultinject.Plan
	// Violation is one broken simulation invariant found by the auditor
	// (see Options.Audit); reach it with errors.As through any run error.
	Violation = audit.Violation
	// Violations aggregates every violation one audit pass found.
	Violations = audit.Violations
	// MetricsOptions arms per-job time-series sampling on experiment
	// drivers and the batch runner (see Options.Metrics).
	MetricsOptions = runner.MetricsOptions
	// RunStore is the durable on-disk, content-addressed result store (see
	// Options.Store and OpenRunStore). Every blob is SHA-256 verified on
	// read; damage degrades to recompute, never to a wrong answer.
	RunStore = runstore.Store
	// RunStoreStats snapshots store effectiveness and health counters.
	RunStoreStats = runstore.Stats
)

// Workload categories, re-exported.
const (
	MemoryIntensive    = workload.MemoryIntensive
	ComputeIntensive   = workload.ComputeIntensive
	LimitedParallelism = workload.LimitedParallelism
)

// Policy constants, re-exported for building custom configurations.
const (
	SchedCentralized = config.SchedCentralized
	SchedDistributed = config.SchedDistributed
	SchedTiled2D     = config.SchedTiled2D
	PlaceInterleave  = config.PlaceInterleave
	PlaceFirstTouch  = config.PlaceFirstTouch
	PlaceRegionAware = config.PlaceRegionAware
	AllocAll         = config.AllocAll
	AllocRemoteOnly  = config.AllocRemoteOnly
)

// Byte-size helpers, re-exported.
const (
	KB = config.KB
	MB = config.MB
)

// WithL15 returns a copy of a config with a module-side L1.5 cache of the
// given total capacity and allocation policy, iso-transistor rebalanced
// against the 16 MB L2 budget (Section 5.1.2).
var WithL15 = config.WithL15

// System presets (see internal/config for parameter provenance).
var (
	// BaselineMCM is the Table 3 baseline 4-GPM MCM-GPU.
	BaselineMCM = config.BaselineMCM
	// OptimizedMCM adds the remote-only L1.5, distributed CTA scheduling
	// and first-touch placement (the paper's proposed design).
	OptimizedMCM = config.OptimizedMCM
	// OptimizedMCM16 is the optimized design with the 16 MB L1.5 split.
	OptimizedMCM16 = config.OptimizedMCM16
	// TiledRegionMCM is the optimized transistor budget re-paired for
	// dense 2-D workloads: tiled 2-D scheduling + region-aware placement.
	TiledRegionMCM = config.TiledRegionMCM
	// MCMWithLink is the baseline with a custom inter-GPM link bandwidth.
	MCMWithLink = config.MCMWithLink
	// Monolithic is a single-die GPU with the given SM count; counts that
	// are not positive multiples of 32 return an error.
	Monolithic = config.Monolithic
	// MustMonolithic is Monolithic for known-good literal SM counts.
	MustMonolithic = config.MustMonolithic
	// LargestBuildableMonolithic is the 128-SM buildability limit.
	LargestBuildableMonolithic = config.LargestBuildableMonolithic
	// UnbuildableMonolithic is the hypothetical 256-SM single die.
	UnbuildableMonolithic = config.UnbuildableMonolithic
	// MultiGPUBaseline is the Section 6 two-GPU board-level system.
	MultiGPUBaseline = config.MultiGPUBaseline
	// MultiGPUOptimized adds GPU-side remote caching to it.
	MultiGPUOptimized = config.MultiGPUOptimized
)

// Workload accessors, re-exported.
var (
	// Workloads returns all 48 applications.
	Workloads = workload.Suite
	// WorkloadByName looks up one application.
	WorkloadByName = workload.ByName
	// MIntensiveWorkloads returns the 17 Table 4 applications.
	MIntensiveWorkloads = workload.MIntensive
	// CIntensiveWorkloads returns the 16 compute-intensive applications.
	CIntensiveWorkloads = workload.CIntensive
	// LimitedWorkloads returns the 15 limited-parallelism applications.
	LimitedWorkloads = workload.Limited
	// DenseWorkloads returns the dense-linear-algebra extension pair
	// (tiled GEMM, flash attention) kept outside the 48-app suite.
	DenseWorkloads = workload.Dense
)

// MustWorkload returns the named workload or panics; convenient in examples
// and tests where the name is a literal.
func MustWorkload(name string) *Spec {
	s, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Run executes one workload on a fresh machine built from cfg.
func Run(cfg *Config, spec *Spec) (*Result, error) {
	return RunWith(cfg, spec, RunOptions{})
}

// RunWith executes one workload on a fresh machine built from cfg, bounded
// by opts: the run additionally terminates with a *SimError when an event or
// cycle budget is exhausted, the wall deadline passes, or the context is
// canceled. The zero RunOptions is exactly Run.
func RunWith(cfg *Config, spec *Spec, opts RunOptions) (*Result, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return m.RunWith(spec, opts)
}

// RunScaled is Run with the workload's per-warp work and footprint scaled
// by scale (1, or any scale that is not positive, = full size). Scaling
// trades fidelity for simulation speed while preserving parallelism and
// locality structure.
func RunScaled(cfg *Config, spec *Spec, scale float64) (*Result, error) {
	return Run(cfg, spec.AtScale(scale))
}

// Speedup returns how much faster "sys" runs a workload than "base"
// (>1 means sys is faster).
func Speedup(base, sys *Result) float64 {
	return sys.SpeedupOver(base)
}

// PaperAnalyticExample returns the Section 3.3.1 example model.
func PaperAnalyticExample() AnalyticModel { return analytic.PaperExample() }

// NewEstimator builds the closed-form performance estimator for cfg. The
// estimator is pure and safe for concurrent use; it predicts in
// microseconds what RunScaled measures in seconds, within the error and
// rank budgets TestAnalyticValidation enforces.
var NewEstimator = analytic.NewEstimator

// EstimateScaled predicts one workload's performance on cfg at the given
// scale without running the event engine — the one-shot form of
// NewEstimator for callers that do not amortize estimator construction.
func EstimateScaled(cfg *Config, spec *Spec, scale float64) (*Estimate, error) {
	e, err := analytic.NewEstimator(cfg)
	if err != nil {
		return nil, err
	}
	return e.Estimate(spec, scale)
}

// CacheStats reports run-cache effectiveness; see RunCacheStats.
type CacheStats = runner.Stats

// RunCacheStats returns a snapshot of the process-wide run cache: hits,
// misses (= simulations actually executed) and distinct entries held.
func RunCacheStats() CacheStats { return runner.Shared().Stats() }

// ResetRunCache discards all memoized results and zeroes the counters.
// Mainly useful in tests and long-lived processes that change the workload
// registry.
func ResetRunCache() { runner.Shared().Reset() }

// OpenRunStore opens (creating if needed) the durable run store rooted at
// dir and arms any store-family fault plan from MCMGPU_FAULT on it (a
// malformed plan is ignored here; the CLIs reject it before opening the
// store). Warnings — quarantined files, degraded reads — are reported
// through warnf when non-nil. The handle is safe for concurrent use and
// can back any number of Options values.
func OpenRunStore(dir string, warnf func(format string, args ...interface{})) (*RunStore, error) {
	plan, _ := faultinject.FromEnv()
	opts := []runstore.Option{runstore.WithFault(plan)}
	if warnf != nil {
		opts = append(opts, runstore.WithLogf(warnf))
	}
	return runstore.Open(dir, opts...)
}

// resultSet caches per-workload results for one system configuration.
type resultSet map[string]*core.Result

// runner builds the executor an Options value asks for: o.Workers-wide
// parallelism over the process-wide memo cache unless o.NoCache opts out,
// bounded by the Options budgets, in fail-fast or collect-errors mode per
// o.KeepGoing.
func (o Options) runner() *runner.Runner {
	r := &runner.Runner{
		Workers:  o.Workers,
		FailFast: !o.KeepGoing,
		Limits: RunOptions{
			MaxEvents:    o.MaxEvents,
			MaxCycles:    o.MaxCycles,
			WallDeadline: o.Deadline,
			Audit:        o.Audit,
		},
		Fault:   o.Fault,
		Metrics: o.Metrics,
		Store:   o.Store,
	}
	if !o.NoCache {
		r.Cache = runner.Shared()
	}
	return r
}

// runSuite executes the given workloads on cfg, returning results by
// workload name. Jobs fan out across o.Workers goroutines; because each
// Machine is deterministic and results are assembled by job index, the
// output is identical for any worker count.
//
// In KeepGoing mode failed jobs are reported through Warnf and simply left
// out of the returned set — drivers render the holes as ERR cells. In
// fail-fast mode (the default) the first failure aborts the experiment.
// Either way, results whose engine had to clamp scheduled-in-the-past
// events are surfaced as warnings: a non-zero ClampedEvents count that
// grows with the event count means a causality bug is hiding behind the
// clamp.
func (o Options) runSuite(cfg *Config, specs []*Spec) (resultSet, error) {
	out, err := o.runner().RunSuite(cfg, specs, o.scale())
	if err != nil {
		if !o.KeepGoing {
			return nil, err
		}
		var jerrs JobErrors
		if errors.As(err, &jerrs) {
			for _, je := range jerrs {
				o.warnf("cell failed: %v", je)
			}
		} else {
			return nil, err
		}
	}
	for _, s := range specs {
		if r, ok := out[s.Name]; ok && r.ClampedEvents > 0 {
			o.warnf("clamped events: %s on %s clamped %d event(s) to the current cycle",
				s.Name, cfg.Name, r.ClampedEvents)
		}
	}
	return resultSet(out), nil
}
