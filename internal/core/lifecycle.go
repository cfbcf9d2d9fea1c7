package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"mcmgpu/internal/engine"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/metrics"
)

// DefaultCheckEvery is how many event dispatches pass between budget checks
// when RunOptions does not say otherwise. The check itself is a handful of
// integer compares (plus one time.Now for wall deadlines), so at this
// interval its cost is unmeasurable against million-event runs while still
// bounding how far a runaway loop can overshoot its budget.
const DefaultCheckEvery = 4096

// RunOptions bounds one Machine run. The zero value imposes no limits and
// adds no per-event overhead: the budget check is only installed when at
// least one field is set, and an installed-but-untripped check observes the
// simulation without mutating it, so bounded runs that finish within budget
// are byte-identical to unbounded ones.
type RunOptions struct {
	// Ctx, when non-nil, cancels the run when the context is done.
	Ctx context.Context
	// MaxEvents stops the run after this many dispatched events (0 = no
	// limit).
	MaxEvents uint64
	// MaxCycles stops the run once simulated time reaches this many cycles
	// (0 = no limit).
	MaxCycles uint64
	// WallDeadline stops the run once wall-clock time passes this instant
	// (zero = no limit).
	WallDeadline time.Time
	// CheckEvery is the number of event dispatches between budget checks
	// (0 = DefaultCheckEvery).
	CheckEvery uint64
	// Fault is a deterministic fault-injection plan; the zero value injects
	// nothing. See internal/faultinject.
	Fault faultinject.Plan
	// Audit enables the invariant auditor: conservation laws are checked
	// periodically and at every kernel boundary, and a violation terminates
	// the run with a *SimError of KindInvariant wrapping the structured
	// *audit.Violation values. Auditing only observes the simulation, so an
	// audited run that finds no violations is byte-identical to an unaudited
	// one. The MCMGPU_AUDIT environment variable forces auditing on
	// regardless of this field (see internal/audit.Forced).
	Audit bool
	// Metrics, when non-nil, attaches the time-series sampler: the machine
	// registers its links, crossbars, DRAM partitions and caches as probes
	// and the recorder streams per-interval delta samples plus per-kernel
	// phase records. Sampling only observes the simulation, so a sampled
	// run's Result is byte-identical to an unsampled one. A recorder write
	// error fails the run after the simulation completes. Metrics does not
	// make a run bounded.
	Metrics *metrics.Recorder
}

// bounded reports whether any limit, context, or fault plan is set.
func (o RunOptions) bounded() bool {
	return o.Ctx != nil || o.MaxEvents > 0 || o.MaxCycles > 0 ||
		!o.WallDeadline.IsZero() || o.Fault.Enabled()
}

// checkEvery returns the effective check interval.
func (o RunOptions) checkEvery() uint64 {
	if o.CheckEvery > 0 {
		return o.CheckEvery
	}
	return DefaultCheckEvery
}

// ErrKind classifies why a bounded run was terminated.
type ErrKind uint8

const (
	// KindCanceled: the run's context was canceled.
	KindCanceled ErrKind = iota
	// KindMaxEvents: the dispatched-event budget was exhausted.
	KindMaxEvents
	// KindMaxCycles: the simulated-cycle budget was exhausted.
	KindMaxCycles
	// KindWallDeadline: the wall-clock deadline passed.
	KindWallDeadline
	// KindInvariant: the invariant auditor found a broken conservation law;
	// Cause holds the audit.Violations.
	KindInvariant
)

// String returns the kind's name.
func (k ErrKind) String() string {
	switch k {
	case KindCanceled:
		return "canceled"
	case KindMaxEvents:
		return "max-events"
	case KindMaxCycles:
		return "max-cycles"
	case KindWallDeadline:
		return "wall-deadline"
	case KindInvariant:
		return "invariant"
	}
	return fmt.Sprintf("ErrKind(%d)", int(k))
}

// SimError reports a run that was terminated by a budget, deadline, or
// cancellation rather than completing. It carries a snapshot of the machine
// at termination so a hung or runaway configuration can be diagnosed from
// the error alone, without rerunning under a debugger.
type SimError struct {
	// Kind says which limit terminated the run.
	Kind ErrKind
	// Config and Workload identify the run.
	Config, Workload string
	// Clock is simulated time at termination.
	Clock engine.Cycle
	// Events is the number of events dispatched before termination.
	Events uint64
	// HeapLen is the number of events still queued — a livelocked run shows
	// a small, steady heap; an event explosion shows a huge one.
	HeapLen int
	// LiveCTAs is the number of CTAs resident when the run stopped.
	LiveCTAs int
	// InFlight is the number of in-flight memory operations (loads plus
	// stores between issue and completion).
	InFlight int
	// Stack is the event-loop goroutine's stack at termination.
	Stack string
	// Cause is the underlying error when one exists (the context's error
	// for KindCanceled), surfaced through Unwrap for errors.Is chains.
	Cause error
}

// Error renders a one-line diagnosis; the "sim error" prefix is stable and
// grepped by CI's fault-injection smoke test. Invariant terminations append
// the broken law, since for those the cause is the diagnosis.
func (e *SimError) Error() string {
	s := fmt.Sprintf("sim error: %s on %s: %s at cycle %d (events=%d, heap=%d, liveCTAs=%d, inflight=%d)",
		e.Workload, e.Config, e.Kind, e.Clock, e.Events, e.HeapLen, e.LiveCTAs, e.InFlight)
	if e.Kind == KindInvariant && e.Cause != nil {
		s += ": " + e.Cause.Error()
	}
	return s
}

// Unwrap exposes the underlying cause (e.g. context.Canceled).
func (e *SimError) Unwrap() error { return e.Cause }

// simError builds the termination snapshot for the current machine state.
func (m *Machine) simError(kind ErrKind, cause error) *SimError {
	return &SimError{
		Kind:     kind,
		Config:   m.cfg.Name,
		Workload: m.spec.Name,
		Clock:    m.sim.Now(),
		Events:   m.sim.Processed(),
		HeapLen:  m.sim.Pending(),
		LiveCTAs: m.liveCTA,
		InFlight: m.loads.live() + m.stores.live(),
		Stack:    string(debug.Stack()),
		Cause:    cause,
	}
}

// checkBudgets is the periodic stop-check the engine consults every
// CheckEvery dispatches during a bounded run. It fires the armed fault plan
// first (so injected faults are subject to the same containment they are
// meant to prove) and then tests each budget in a fixed order: events,
// cycles, wall clock, context. It never mutates simulation state unless a
// fault fires, which keeps within-budget bounded runs byte-identical to
// unbounded ones.
func (m *Machine) checkBudgets() error {
	if !m.faultFired && m.opts.Fault.Matches(m.spec.Name) &&
		m.sim.Processed() >= m.opts.Fault.AtEvent {
		m.faultFired = true
		switch m.opts.Fault.Kind {
		case faultinject.Panic:
			panic(faultinject.Injected{Plan: m.opts.Fault})
		case faultinject.Stall:
			m.sim.After(0, 0, evStall)
		case faultinject.Spin:
			m.sim.After(0, 0, evSpin)
		case faultinject.CorruptBudget:
			m.budgetCorrupt = true
		case faultinject.CorruptCounter:
			m.corruptCounter(m.opts.Fault.Target)
		}
	}
	if m.budgetCorrupt || (m.opts.MaxEvents > 0 && m.sim.Processed() >= m.opts.MaxEvents) {
		return m.simError(KindMaxEvents, nil)
	}
	if m.opts.MaxCycles > 0 && uint64(m.sim.Now()) >= m.opts.MaxCycles {
		return m.simError(KindMaxCycles, nil)
	}
	if !m.opts.WallDeadline.IsZero() && time.Now().After(m.opts.WallDeadline) {
		return m.simError(KindWallDeadline, nil)
	}
	if m.opts.Ctx != nil {
		if err := m.opts.Ctx.Err(); err != nil {
			return m.simError(KindCanceled, err)
		}
	}
	return nil
}
