// Package cli is the flag wiring the three simulation commands share.
// experiments, sweep and mcmsim each register the ten flags below, keep
// only their own flags, and get the runner those flags describe from
// Build: the budgets and deadline, the MCMGPU_FAULT plan, the run cache,
// the -metrics output and the -store tier. Profile starts the
// -cpuprofile and -memprofile profiles.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"mcmgpu/internal/core"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/metrics"
	"mcmgpu/internal/metricstream"
	"mcmgpu/internal/prof"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore"
)

// Flags holds the values of the shared flags after parsing.
type Flags struct {
	prog string

	Scale           float64
	Timeout         time.Duration
	MaxEvents       uint64
	Audit           bool
	KeepGoing       bool
	Metrics         string
	MetricsInterval uint64
	Store           string
	CPUProfile      string
	MemProfile      string
}

// Register declares the shared flags on fs for the command named prog,
// which prefixes every line Build and its close function print.
func Register(fs *flag.FlagSet, prog string) *Flags {
	f := &Flags{prog: prog}
	fs.Float64Var(&f.Scale, "scale", 1, "workload scale factor (trades fidelity for speed)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock budget for the whole invocation (0 = none)")
	fs.Uint64Var(&f.MaxEvents, "max-events", 0, "per-run event budget (0 = none)")
	fs.BoolVar(&f.Audit, "audit", false, "check simulation invariants (conservation laws) during every run; MCMGPU_AUDIT=1 forces this on")
	fs.BoolVar(&f.KeepGoing, "keep-going", false, "continue past a failed run instead of aborting; exit 1 at the end if any failed")
	fs.StringVar(&f.Metrics, "metrics", "", "stream per-interval time-series samples of every run to this file (NDJSON, or CSV when the path ends in .csv; a .gz suffix gzips either)")
	fs.Uint64Var(&f.MetricsInterval, "metrics-interval", uint64(metrics.DefaultInterval), "sampling interval in cycles for -metrics")
	fs.StringVar(&f.Store, "store", "", "durable run store directory: serve warm cells from disk and persist fresh ones")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an allocation profile to this file on exit")
	return f
}

// Validate rejects a -scale that is not a positive, finite number.
func (f *Flags) Validate() error {
	if !(f.Scale > 0) || math.IsInf(f.Scale, 1) {
		return fmt.Errorf("-scale %v: want a positive, finite number", f.Scale)
	}
	return nil
}

func (f *Flags) warnf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, f.prog+": "+format+"\n", args...)
}

// Profile starts the profiles -cpuprofile and -memprofile ask for (see
// prof.Start). The stop function ends them and writes the allocation
// profile; a failure is printed and returned, so the caller can exit 1.
func (f *Flags) Profile() (stop func() error, err error) {
	stopProf, err := prof.Start(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	return func() error {
		err := stopProf()
		if err != nil {
			f.warnf("%v", err)
		}
		return err
	}, nil
}

// Build returns the runner the flags describe: the MCMGPU_FAULT plan, the
// -max-events budget and -audit, the -timeout deadline counted from now,
// collect-errors mode under -keep-going, the process-wide run cache unless
// noCache, a -metrics output and a -store tier. A store that cannot
// open is a warning, and the runner computes without it. check, when
// non-nil, sees the runner before any file is created and can refuse it.
//
// The close function closes the -metrics output, then prints the store's
// counters. A failed Close — how a full disk reports a truncated stream —
// is printed and returned, so the caller can exit 1.
func (f *Flags) Build(noCache bool, check func(*runner.Runner) error) (*runner.Runner, func() error, error) {
	fault, err := faultinject.FromEnv()
	if err != nil {
		return nil, nil, err
	}
	r := &runner.Runner{
		FailFast: !f.KeepGoing,
		Limits:   core.RunOptions{MaxEvents: f.MaxEvents, Audit: f.Audit},
		Fault:    fault,
	}
	if f.Timeout > 0 {
		r.Limits.WallDeadline = time.Now().Add(f.Timeout)
	}
	if !noCache {
		r.Cache = runner.Shared()
	}
	if check != nil {
		if err := check(r); err != nil {
			return nil, nil, err
		}
	}
	var out io.WriteCloser
	if f.Metrics != "" {
		w, csv, err := metricstream.CreateOutput(f.Metrics)
		if err != nil {
			return nil, nil, err
		}
		out = w
		r.Metrics = &runner.MetricsOptions{Interval: f.MetricsInterval, W: w, CSV: csv}
	}
	if f.Store != "" {
		// Durability is an optimization: without the store the simulation
		// still runs. Open returns a nil store on error.
		if r.Store, err = runstore.Open(f.Store, runstore.WithLogf(f.warnf), runstore.WithFault(fault)); err != nil {
			f.warnf("store unavailable, computing without it: %v", err)
		}
	}
	return r, func() error {
		var err error
		if out != nil {
			if err = out.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
			}
		}
		if r.Store != nil {
			fmt.Fprintf(os.Stderr, "%s: store: %v\n", f.prog, r.Store.Stats())
		}
		return err
	}, nil
}
