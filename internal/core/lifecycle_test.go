package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/engine"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/workload"
)

// runWith builds a fresh machine and runs spec under opts.
func runWith(t *testing.T, cfg *config.Config, spec *workload.Spec, opts RunOptions) (*Result, error) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.RunWith(spec, opts)
}

// wantSimError asserts err is a *SimError of the given kind and returns it.
func wantSimError(t *testing.T, err error, kind ErrKind) *SimError {
	t.Helper()
	if err == nil {
		t.Fatalf("run completed, want a %s SimError", kind)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error %T (%v) is not a *SimError", err, err)
	}
	if se.Kind != kind {
		t.Fatalf("SimError kind = %s, want %s", se.Kind, kind)
	}
	return se
}

func TestMaxEventsTrips(t *testing.T) {
	se := wantSimError(t, secondOf(runWith(t, config.BaselineMCM(), probeSpec(nil),
		RunOptions{MaxEvents: 10_000, CheckEvery: 64})), KindMaxEvents)
	if se.Events < 10_000 {
		t.Errorf("tripped at %d events, before the 10k budget", se.Events)
	}
	// The check runs every CheckEvery dispatches, so the overshoot is bounded.
	if se.Events > 10_000+64 {
		t.Errorf("tripped at %d events, overshooting the 10k budget past the check interval", se.Events)
	}
	if se.Workload != "probe" || se.Config == "" {
		t.Errorf("SimError does not identify the run: %+v", se)
	}
	if se.Stack == "" {
		t.Error("SimError carries no stack")
	}
	if se.LiveCTAs <= 0 {
		t.Errorf("mid-run SimError reports %d live CTAs", se.LiveCTAs)
	}
}

func TestMaxCyclesTrips(t *testing.T) {
	se := wantSimError(t, secondOf(runWith(t, config.BaselineMCM(), probeSpec(nil),
		RunOptions{MaxCycles: 500, CheckEvery: 64})), KindMaxCycles)
	if uint64(se.Clock) < 500 {
		t.Errorf("tripped at cycle %d, before the 500-cycle budget", se.Clock)
	}
}

func TestWallDeadlineTrips(t *testing.T) {
	err := secondOf(runWith(t, config.BaselineMCM(), probeSpec(nil),
		RunOptions{WallDeadline: time.Now().Add(-time.Second), CheckEvery: 64}))
	wantSimError(t, err, KindWallDeadline)
}

func TestContextCancelTrips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	se := wantSimError(t, secondOf(runWith(t, config.BaselineMCM(), probeSpec(nil),
		RunOptions{Ctx: ctx, CheckEvery: 64})), KindCanceled)
	if !errors.Is(se, context.Canceled) {
		t.Errorf("canceled SimError does not unwrap to context.Canceled (cause %v)", se.Cause)
	}
}

// TestBoundedRunIsByteIdentical is the lifecycle's determinism contract: a
// run bounded by generous, untripped limits must produce exactly the result
// an unbounded run does — the budget check observes but never mutates.
func TestBoundedRunIsByteIdentical(t *testing.T) {
	spec := probeSpec(nil)
	free := mustRun(t, config.BaselineMCM(), spec)
	bounded, err := runWith(t, config.BaselineMCM(), spec, RunOptions{
		Ctx:          context.Background(),
		MaxEvents:    1 << 62,
		MaxCycles:    1 << 62,
		WallDeadline: time.Now().Add(time.Hour),
		CheckEvery:   1, // check after every single dispatch
	})
	if err != nil {
		t.Fatalf("generously bounded run tripped: %v", err)
	}
	if !reflect.DeepEqual(free, bounded) {
		t.Fatalf("bounded-but-untripped run diverged from unbounded run:\nfree:    %+v\nbounded: %+v", free, bounded)
	}
}

// TestFaultStall proves the classic livelock — an event rescheduling itself
// at the same cycle — is caught by the event budget with a frozen clock.
func TestFaultStall(t *testing.T) {
	se := wantSimError(t, secondOf(runWith(t, config.BaselineMCM(), probeSpec(nil), RunOptions{
		Fault:      faultinject.Plan{Kind: faultinject.Stall, AtEvent: 5_000},
		MaxEvents:  50_000,
		CheckEvery: 64,
	})), KindMaxEvents)
	if se.HeapLen == 0 {
		t.Error("stalled run stopped with an empty heap; the staller should keep the queue alive")
	}
}

// TestFaultSpin proves a runaway clock — an event rescheduling itself one
// cycle ahead forever — is caught by the cycle budget. The budget is sized
// from an unbounded run so the healthy run finishes well inside it and only
// the spinning clock can trip it (the spinner advances one cycle per event,
// so an astronomical budget would take astronomically long to reach).
func TestFaultSpin(t *testing.T) {
	spec := probeSpec(nil)
	natural := mustRun(t, config.BaselineMCM(), spec)
	wantSimError(t, secondOf(runWith(t, config.BaselineMCM(), spec, RunOptions{
		Fault:      faultinject.Plan{Kind: faultinject.Spin, AtEvent: 5_000},
		MaxCycles:  natural.Cycles * 4,
		CheckEvery: 64,
	})), KindMaxCycles)
}

// TestFaultStallFreezesClock drives the stall and spin fault events
// through the machine's dispatch: a stall keeps the queue alive without
// advancing the clock, and a spin advances it one cycle per event.
func TestFaultStallFreezesClock(t *testing.T) {
	for _, tc := range []struct {
		kind uint8
		name string
		now  engine.Cycle
	}{{evStall, "stall", 0}, {evSpin, "spin", 99}} {
		m := assembled(t, config.BaselineMCM(), probeSpec(nil))
		m.sim.After(0, 0, tc.kind)
		for i := 0; i < 100; i++ {
			if !m.sim.Step() {
				t.Fatalf("%s let the queue drain", tc.name)
			}
		}
		if m.sim.Now() != tc.now || m.sim.Pending() != 1 {
			t.Fatalf("%s: after 100 events the clock reads %d with %d pending, want %d and 1",
				tc.name, m.sim.Now(), m.sim.Pending(), tc.now)
		}
	}
}

// TestFaultClampClampsEveryEvent drives the clamp-storm fault event
// through the machine's dispatch: every dispatch schedules one event in the
// past, so the engine clamps one event per dispatch and the queue stays
// live.
func TestFaultClampClampsEveryEvent(t *testing.T) {
	m := assembled(t, config.BaselineMCM(), probeSpec(nil))
	m.sim.RunUntil(1000)
	m.sim.After(0, 0, evClamp)
	for i := 0; i < 100; i++ {
		if !m.sim.Step() {
			t.Fatal("clamp storm let the queue drain")
		}
	}
	if got := m.sim.Clamped(); got != 100 {
		t.Fatalf("clamp storm clamped %d events in 100 dispatches, want 100", got)
	}
}

// TestFaultCorruptBudget proves a corrupted budget trips the next check even
// though the configured budget is effectively infinite.
func TestFaultCorruptBudget(t *testing.T) {
	wantSimError(t, secondOf(runWith(t, config.BaselineMCM(), probeSpec(nil), RunOptions{
		Fault:      faultinject.Plan{Kind: faultinject.CorruptBudget, AtEvent: 5_000},
		MaxEvents:  1 << 62,
		CheckEvery: 64,
	})), KindMaxEvents)
}

// TestFaultPanicEscapes proves the Panic kind really panics out of RunWith
// with the recognizable Injected value — containment is the runner's job.
func TestFaultPanicEscapes(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Panic fault did not panic")
		}
		if _, ok := v.(faultinject.Injected); !ok {
			t.Fatalf("panicked with %T (%v), want faultinject.Injected", v, v)
		}
	}()
	runWith(t, config.BaselineMCM(), probeSpec(nil), RunOptions{
		Fault:      faultinject.Plan{Kind: faultinject.Panic, AtEvent: 5_000},
		CheckEvery: 64,
	})
}

// TestFaultWorkloadFilter proves a plan scoped to another workload leaves
// the run untouched.
func TestFaultWorkloadFilter(t *testing.T) {
	spec := probeSpec(nil)
	res, err := runWith(t, config.BaselineMCM(), spec, RunOptions{
		Fault:      faultinject.Plan{Kind: faultinject.Stall, AtEvent: 0, Workload: "someone-else"},
		MaxEvents:  1 << 62,
		CheckEvery: 64,
	})
	if err != nil {
		t.Fatalf("filtered-out fault still fired: %v", err)
	}
	if !reflect.DeepEqual(res, mustRun(t, config.BaselineMCM(), spec)) {
		t.Fatal("filtered-out fault perturbed the run")
	}
}

// TestMachineRunsOnce asserts the one-shot contract survives the RunWith
// path too.
func TestMachineRunsOnce(t *testing.T) {
	m, err := New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunWith(probeSpec(nil), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunWith(probeSpec(nil), RunOptions{}); err == nil {
		t.Fatal("second RunWith on one machine did not error")
	}
}

// secondOf drops a (result, error) pair to its error.
func secondOf(_ *Result, err error) error { return err }
