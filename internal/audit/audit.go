// Package audit implements the simulation invariant auditor: a registry of
// conservation-law checks that model components self-report into, evaluated
// at kernel boundaries (and periodically, for the checks that stay valid
// mid-kernel) against the live machine state.
//
// The motivation is silent corruption. The run lifecycle (internal/core's
// budgets and the runner's panic containment) catches loud failures — hangs,
// panics, runaway clocks — but a cycle-level NUMA model fails far more often
// quietly: a miscounted line fill or a byte double-booked on a link skews the
// very curves the paper is built on (the inter-GPM bandwidth of Figures 7, 10
// and 14, the hit rates behind Table 5) without tripping anything. The
// auditor turns the model's redundant bookkeeping into tripwires: every
// quantity that is counted in two places (bytes on the NoC vs. per-link
// reservations vs. the energy meter; accesses entering a cache level vs.
// misses leaving the level above) must agree exactly, and drained state
// (in-flight operations, resident CTAs, the event queue) must return to zero
// at every kernel boundary.
//
// Checks only observe — a registered check must never mutate model state —
// so an audited run is byte-identical to an unaudited one, which is itself
// pinned by tests. Violations surface as structured *Violation errors that
// flow through the existing SimError/JobError plumbing unchanged.
//
// Auditing is always on in tests and opt-in at runtime: the CLIs take an
// -audit flag, and setting MCMGPU_AUDIT=1 forces it for any process (see
// Forced).
package audit

import (
	"fmt"
	"os"
)

// EnvVar is the environment variable that forces auditing on for a whole
// process, equivalent to passing -audit to every CLI.
const EnvVar = "MCMGPU_AUDIT"

// Forced reports whether the environment forces auditing on. Accepted
// truthy values are "1", "true", "yes" and "on"; anything else (including
// unset) leaves auditing at the caller's choice.
func Forced() bool {
	switch os.Getenv(EnvVar) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// Clamp-guard threshold. The engine clamps events scheduled in the past to
// the current cycle so floating-point slop in resource timelines cannot wedge
// a run; a count that grows with the event count means a causality bug is
// hiding behind the clamp. The audited invariant allows a fixed allowance
// plus MaxClampedPerMillion clamps per million dispatched events — generous
// against slop (healthy runs clamp zero events at every tested scale) and
// hopeless against a real causality bug, which clamps per event.
const (
	// MaxClampedPerMillion is the audited ceiling on clamped events per
	// million dispatched events, beyond the fixed allowance.
	MaxClampedPerMillion = 100
	// ClampAllowance is the fixed number of clamped events tolerated
	// regardless of run length, covering startup transients in short runs.
	ClampAllowance = 16
)

// ClampBudget returns the maximum tolerated clamped-event count for a run
// that has dispatched the given number of events.
func ClampBudget(events uint64) uint64 {
	return ClampAllowance + events/1_000_000*MaxClampedPerMillion + events%1_000_000*MaxClampedPerMillion/1_000_000
}

// Phase says when a check is valid to run. Conservation laws that compare
// end-to-end flows (accesses into a level vs. misses out of the level above)
// are transiently false while operations are in flight, so they only run at
// kernel boundaries; cheap structural checks that hold at any instant also
// run periodically from the engine's audit hook.
type Phase uint8

const (
	// Periodic marks a check that holds mid-kernel and is cheap enough to
	// run every audit interval.
	Periodic Phase = 1 << iota
	// Boundary marks a check that requires a drained event queue and runs at
	// kernel boundaries and end-of-run.
	Boundary
)

// Violation is one broken invariant: which law, which component, and the
// mismatched quantities. It is an error so it can ride the SimError/JobError
// plumbing, and a structured value so tests and tools can match on the
// invariant name instead of parsing messages.
type Violation struct {
	// Invariant is the stable name of the broken law (e.g. "noc-bytes",
	// "l1-flow"); DESIGN.md documents every name.
	Invariant string
	// Component locates the violation (e.g. "dram-2", "sm17-l1", "machine").
	Component string
	// Detail states the mismatch with the observed numbers.
	Detail string
}

// Error renders the violation on one line.
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant %s violated at %s: %s", v.Invariant, v.Component, v.Detail)
}

// Violations aggregates every violation found by one audit pass. A non-empty
// slice is an error whose Unwrap exposes the individual violations to
// errors.As, so `var v *audit.Violation; errors.As(err, &v)` works through
// any wrapping.
type Violations []*Violation

// Error summarizes: the first violation, plus a count when there are more.
func (vs Violations) Error() string {
	if len(vs) == 0 {
		return "audit: no violations"
	}
	if len(vs) == 1 {
		return vs[0].Error()
	}
	return fmt.Sprintf("%s (and %d more violations)", vs[0].Error(), len(vs)-1)
}

// Unwrap exposes the individual violations to errors.Is/As.
func (vs Violations) Unwrap() []error {
	out := make([]error, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// Err returns the slice as an error, or nil when no invariant was violated —
// a typed-nil guard so callers can return it directly.
func (vs Violations) Err() error {
	if len(vs) == 0 {
		return nil
	}
	return vs
}

// Reporter collects violations during one audit pass. Component check
// methods (cache.Audit, noc.Audit, ...) append into the reporter rather than
// returning errors, so one pass gathers every broken invariant instead of
// stopping at the first.
type Reporter struct {
	vs Violations
}

// Reportf records one violation.
func (r *Reporter) Reportf(invariant, component, format string, args ...interface{}) {
	r.vs = append(r.vs, &Violation{
		Invariant: invariant,
		Component: component,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Violations returns everything reported so far.
func (r *Reporter) Violations() Violations { return r.vs }

// Equal reports a violation unless got == want, naming the quantity being
// conserved. It returns true when the invariant held, so callers can chain
// dependent checks.
func Equal[T comparable](r *Reporter, invariant, component, quantity string, got, want T) bool {
	if got == want {
		return true
	}
	r.Reportf(invariant, component, "%s = %v, want %v", quantity, got, want)
	return false
}

// check is one registered invariant.
type check struct {
	name   string
	phases Phase
	fn     func(*Reporter)
}

// Auditor is a registry of invariant checks over one machine. Build it once
// per run, Register every component's checks, then Run the appropriate phase
// from the engine's periodic hook and at each kernel boundary.
type Auditor struct {
	checks []check
}

// Register adds a named check to the given phases. Checks run in
// registration order, which keeps audit output deterministic.
func (a *Auditor) Register(name string, phases Phase, fn func(*Reporter)) {
	a.checks = append(a.checks, check{name: name, phases: phases, fn: fn})
}

// Names returns the registered check names in order, for docs and tests.
func (a *Auditor) Names() []string {
	out := make([]string, len(a.checks))
	for i, c := range a.checks {
		out[i] = c.name
	}
	return out
}

// Run evaluates every check registered for the given phase and returns the
// violations found (nil when every invariant held).
func (a *Auditor) Run(phase Phase) Violations {
	var r Reporter
	for _, c := range a.checks {
		if c.phases&phase != 0 {
			c.fn(&r)
		}
	}
	return r.vs
}
