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

// firing is one hook run: the hook's name and Processed when it ran.
type firing struct {
	hook string
	at   uint64
}

// recorder returns a hook that appends its firing to *log, and stops the
// loop with an error when stop reports true for the firing.
func recorder(s *Sim, log *[]firing, name string, stop func(at uint64) bool) func() error {
	return func() error {
		*log = append(*log, firing{name, s.Processed()})
		if stop != nil && stop(s.Processed()) {
			return errors.New(name + " stops")
		}
		return nil
	}
}

// TestHookFiringSequence pins the exact (hook, Processed) sequence of hooks
// at intervals 1, 3, 512 and 4096 over 10,000 events, drained by RunUntil
// and then Run, with the 512 hook added by the handler of the 1,000th
// event: each hook runs at every multiple of its interval past the
// Processed count at its AddHook, and hooks due at the same event run in
// install order.
func TestHookFiringSequence(t *testing.T) {
	const events = 10_000
	s := New()
	var got []firing
	for i := Cycle(0); i < events; i++ {
		schedAt(s, i/3, func() {
			if s.Processed() == 1000 {
				s.AddHook(512, recorder(s, &got, "512", nil))
			}
		})
	}
	s.AddHook(1, recorder(s, &got, "1", nil))
	s.AddHook(3, recorder(s, &got, "3", nil))
	s.AddHook(4096, recorder(s, &got, "4096", nil))
	s.RunUntil(1500)
	if s.Processed() == 0 || s.Pending() == 0 {
		t.Fatalf("RunUntil dispatched %d events and left %d; the test needs both loops", s.Processed(), s.Pending())
	}
	s.Run()

	var want []firing
	for at := uint64(1); at <= events; at++ {
		for _, h := range []struct {
			name        string
			every, from uint64
		}{{"1", 1, 0}, {"3", 3, 0}, {"4096", 4096, 0}, {"512", 512, 1000}} {
			if at > h.from && (at-h.from)%h.every == 0 {
				want = append(want, firing{h.name, at})
			}
		}
	}
	if len(want) != 13352 {
		t.Fatalf("reference sequence has %d firings, want 13352", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("hooks fired %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d: %v, want %v (previous %v)", i, got[i], want[i], got[max(i-1, 0)])
		}
	}
	var late []firing
	for _, f := range got {
		if f.hook == "512" || f.hook == "4096" {
			late = append(late, f)
		}
	}
	if late[0] != (firing{"512", 1512}) || late[1] != (firing{"512", 2024}) || late[6] != (firing{"4096", 4096}) {
		t.Fatalf("the coarse hooks' first firings are %v", late[:7])
	}
}

// TestHookStopSkipsLaterHooks pins what a stop does to the hooks after the
// stopping one: hooks at intervals 3, 3 and 6, the first stopping at
// Processed 6, so the two others, due at 6 too, are skipped. Resumed, they
// run at the next event and count their intervals from there, while the
// stopping hook keeps its own schedule.
func TestHookStopSkipsLaterHooks(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 14; i++ {
		schedAt(s, i, func() {})
	}
	var got []firing
	s.AddHook(3, recorder(s, &got, "a", func(at uint64) bool { return at == 6 }))
	s.AddHook(3, recorder(s, &got, "b", nil))
	s.AddHook(6, recorder(s, &got, "c", nil))
	s.Run()
	if s.StopErr() == nil || s.Processed() != 6 {
		t.Fatalf("run stopped at %d with %v, want a stop at 6", s.Processed(), s.StopErr())
	}
	s.Run()
	want := []firing{{"a", 3}, {"b", 3}, {"a", 6}, {"b", 7}, {"c", 7}, {"a", 9}, {"b", 10}, {"a", 12}, {"b", 13}, {"c", 13}}
	if len(got) != len(want) {
		t.Fatalf("firings %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firings %v, want %v", got, want)
		}
	}
}
