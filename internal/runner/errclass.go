package runner

import (
	"context"
	"errors"

	"mcmgpu/internal/core"
)

// ErrClass partitions job failures by what a caller holding the job's key —
// the memo cache, the durable store, or a service deciding whether to retry
// a cell — should do about them. The partition the whole stack agrees on:
//
//   - ClassCanceled and ClassTransient depend on wall time, not on the job
//     key: a retry can succeed, so nothing may memoize or quarantine them.
//   - Every other class is a deterministic property of the key: the same
//     job fails the same way on every attempt, so retrying buys nothing and
//     a service should quarantine the cell on its first failure instead of
//     looping on it.
type ErrClass string

const (
	// ClassNone is the classification of a nil error.
	ClassNone ErrClass = ""
	// ClassCanceled: the run's context was canceled. Terminal for this
	// request, meaningless for the key.
	ClassCanceled ErrClass = "canceled"
	// ClassTransient: a wall-clock deadline tripped. A retry on a faster or
	// less loaded machine can succeed.
	ClassTransient ErrClass = "transient"
	// ClassPanic: the simulation panicked (recovered into a *PanicError).
	ClassPanic ErrClass = "panic"
	// ClassBudget: an event or cycle budget was exhausted.
	ClassBudget ErrClass = "budget"
	// ClassInvariant: the invariant auditor found a broken conservation law.
	ClassInvariant ErrClass = "invariant"
	// ClassError: any other deterministic failure (config validation, an
	// unknown workload, a malformed spec).
	ClassError ErrClass = "error"
)

// Deterministic reports whether the class is a property of the job key —
// i.e. whether the same job must fail the same way on every retry.
func (c ErrClass) Deterministic() bool {
	switch c {
	case ClassNone, ClassCanceled, ClassTransient:
		return false
	}
	return true
}

// Classify maps a job failure onto its ErrClass. It understands the error
// shapes this package produces — *PanicError, *core.SimError, raw context
// errors — and files everything else under ClassError.
func Classify(err error) ErrClass {
	if err == nil {
		return ClassNone
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return ClassPanic
	}
	var se *core.SimError
	if errors.As(err, &se) {
		switch se.Kind {
		case core.KindCanceled:
			return ClassCanceled
		case core.KindWallDeadline:
			return ClassTransient
		case core.KindMaxEvents, core.KindMaxCycles:
			return ClassBudget
		case core.KindInvariant:
			return ClassInvariant
		}
		return ClassError
	}
	if errors.Is(err, context.Canceled) {
		return ClassCanceled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassTransient
	}
	return ClassError
}
