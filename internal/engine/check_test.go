package engine

import (
	"errors"
	"testing"
)

// TestCheckStopsRun asserts an installed hook can stop Run mid-drain, with
// the queue left intact and the error reported through StopErr.
func TestCheckStopsRun(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	stop := errors.New("budget")
	s.AddHook(10, func() error {
		if s.Processed() >= 50 {
			return stop
		}
		return nil
	})
	s.Run()
	if !errors.Is(s.StopErr(), stop) {
		t.Fatalf("StopErr = %v, want the hook's error", s.StopErr())
	}
	if s.Pending() == 0 {
		t.Fatal("stopped run drained the queue")
	}
	if s.Processed() < 50 || s.Processed() > 60 {
		t.Fatalf("stopped after %d events, want 50..60 (hook interval 10)", s.Processed())
	}
}

// TestCheckInterval asserts a hook runs once per interval dispatches, not
// per event.
func TestCheckInterval(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	calls := 0
	s.AddHook(25, func() error { calls++; return nil })
	s.Run()
	if calls != 4 {
		t.Fatalf("hook ran %d times over 100 events at interval 25, want 4", calls)
	}
	if s.StopErr() != nil {
		t.Fatalf("untripped hook set StopErr: %v", s.StopErr())
	}
}

// TestCheckHonoredByRunUntil asserts RunUntil consults hooks too.
func TestCheckHonoredByRunUntil(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	stop := errors.New("budget")
	s.AddHook(1, func() error {
		if s.Processed() >= 10 {
			return stop
		}
		return nil
	})
	s.RunUntil(1000)
	if !errors.Is(s.StopErr(), stop) {
		t.Fatalf("RunUntil ignored the hook: StopErr = %v", s.StopErr())
	}
	if s.Processed() > 20 {
		t.Fatalf("RunUntil processed %d events past the stop", s.Processed())
	}
}

// TestCheckedRunMatchesUnchecked asserts an installed-but-untripped hook
// leaves the run's observable outcome identical to an unhooked run.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	trace := func(hooked bool) []Cycle {
		s := New()
		var got []Cycle
		for i := Cycle(0); i < 50; i++ {
			i := i
			schedAt(s, i*3, func() {
				got = append(got, s.Now())
				if i%7 == 0 {
					schedAfter(s, 2, func() { got = append(got, s.Now()) })
				}
			})
		}
		if hooked {
			s.AddHook(1, func() error { return nil })
		}
		s.Run()
		return got
	}
	a, b := trace(false), trace(true)
	if len(a) != len(b) {
		t.Fatalf("hooked run dispatched %d events, unhooked %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d at cycle %d (unhooked) vs %d (hooked)", i, a[i], b[i])
		}
	}
}

// TestAuditStopsRun asserts a hook installed after an untripped one can
// still stop Run, with the error surfaced through StopErr.
func TestAuditStopsRun(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	s.AddHook(1, func() error { return nil })
	stop := errors.New("violation")
	s.AddHook(10, func() error {
		if s.Processed() >= 50 {
			return stop
		}
		return nil
	})
	s.Run()
	if !errors.Is(s.StopErr(), stop) {
		t.Fatalf("StopErr = %v, want the second hook's error", s.StopErr())
	}
	if s.Pending() == 0 {
		t.Fatal("stopped run drained the queue")
	}
}

// TestAuditIntervalIndependentOfCheck asserts hooks installed together each
// run at their own interval.
func TestAuditIntervalIndependentOfCheck(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	checks, audits := 0, 0
	s.AddHook(10, func() error { checks++; return nil })
	s.AddHook(25, func() error { audits++; return nil })
	s.Run()
	if checks != 10 || audits != 4 {
		t.Fatalf("over 100 events: %d checks (want 10), %d audits (want 4)", checks, audits)
	}
	if s.StopErr() != nil {
		t.Fatalf("untripped hooks set StopErr: %v", s.StopErr())
	}
}

// TestCheckPrecedesAudit asserts hooks run in install order: when two trip
// on the same event, the one installed first reports. core installs the
// budget check first, so corrupted runs report the established budget
// failure, not whichever invariant the corruption hit.
func TestCheckPrecedesAudit(t *testing.T) {
	first := func(a, b error) error {
		s := New()
		for i := Cycle(0); i < 10; i++ {
			schedAt(s, i, func() {})
		}
		s.AddHook(1, func() error { return a })
		s.AddHook(1, func() error { return b })
		s.Run()
		return s.StopErr()
	}
	budget, violation := errors.New("budget"), errors.New("violation")
	if err := first(budget, violation); !errors.Is(err, budget) {
		t.Fatalf("StopErr = %v, want the first-installed budget error", err)
	}
	if err := first(violation, budget); !errors.Is(err, violation) {
		t.Fatalf("StopErr = %v, want the first-installed violation error", err)
	}
}

// TestAuditHonoredByRunUntil asserts RunUntil consults later hooks too.
func TestAuditHonoredByRunUntil(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	s.AddHook(1, func() error { return nil })
	stop := errors.New("violation")
	s.AddHook(1, func() error {
		if s.Processed() >= 10 {
			return stop
		}
		return nil
	})
	s.RunUntil(1000)
	if !errors.Is(s.StopErr(), stop) {
		t.Fatalf("RunUntil ignored the second hook: StopErr = %v", s.StopErr())
	}
}

// TestStopErrClearedByNextRun asserts StopErr reports only the most recent
// Run: a later Run that drains normally clears it.
func TestStopErrClearedByNextRun(t *testing.T) {
	s := New()
	schedAt(s, 0, func() {})
	tripped := false
	s.AddHook(1, func() error {
		if !tripped {
			tripped = true
			return errors.New("once")
		}
		return nil
	})
	s.Run()
	if s.StopErr() == nil {
		t.Fatal("hook did not stop the run")
	}
	schedAt(s, 1, func() {})
	s.Run()
	if s.StopErr() != nil {
		t.Fatalf("drained run kept a stale StopErr: %v", s.StopErr())
	}
}
