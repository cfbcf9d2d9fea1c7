package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// funcs is a Handler that runs the closure registered under each ref, so
// tests can schedule one-off actions without declaring a handler type.
type funcs []func()

func (f *funcs) Dispatch(ref uint32, _ uint8) { (*f)[ref]() }

// register adds fn to s's funcs handler, installing one on first use, and
// returns the ref that runs it.
func register(s *Sim, fn func()) uint32 {
	f, _ := s.h.(*funcs)
	if f == nil {
		f = new(funcs)
		s.SetHandler(f)
	}
	*f = append(*f, fn)
	return uint32(len(*f) - 1)
}

// schedAt schedules fn at absolute time t.
func schedAt(s *Sim, t Cycle, fn func()) { s.At(t, register(s, fn), 0) }

// schedAfter schedules fn delay cycles from now.
func schedAfter(s *Sim, delay Cycle, fn func()) { s.After(delay, register(s, fn), 0) }

// handlerFunc adapts a function to Handler.
type handlerFunc func(ref uint32, kind uint8)

func (f handlerFunc) Dispatch(ref uint32, kind uint8) { f(ref, kind) }

// appendRefs is a Handler that records each dispatched ref.
type appendRefs []int

func (a *appendRefs) Dispatch(ref uint32, _ uint8) { *a = append(*a, int(ref)) }

func TestSimEmptyRun(t *testing.T) {
	s := New()
	if n := s.Run(); n != 0 {
		t.Fatalf("Run on empty sim processed %d events", n)
	}
	if s.Now() != 0 {
		t.Fatalf("Now = %d, want 0", s.Now())
	}
}

func TestSimOrdering(t *testing.T) {
	s := New()
	var got []int
	schedAt(s, 30, func() { got = append(got, 3) })
	schedAt(s, 10, func() { got = append(got, 1) })
	schedAt(s, 20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d, want 30", s.Now())
	}
}

func TestSimSameCycleFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		schedAt(s, 5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events ran out of scheduling order at %d: %v", i, got[:i+1])
		}
	}
}

func TestSimScheduleDuringRun(t *testing.T) {
	s := New()
	var got []Cycle
	schedAt(s, 10, func() {
		got = append(got, s.Now())
		schedAfter(s, 5, func() { got = append(got, s.Now()) })
	})
	s.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v, want [10 15]", got)
	}
}

func TestSimPastClamped(t *testing.T) {
	s := New()
	fired := Cycle(0)
	schedAt(s, 100, func() {
		schedAt(s, 50, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 100 {
		t.Fatalf("past-scheduled event fired at %d, want clamped to 100", fired)
	}
}

func TestSimClampedCounter(t *testing.T) {
	s := New()
	nop := register(s, func() {})
	schedAt(s, 100, func() {
		schedAt(s, 50, func() {})   // past: clamped
		s.At(10, nop, 1)            // past: clamped
		schedAt(s, 100, func() {})  // now: not clamped
		schedAfter(s, 5, func() {}) // future: not clamped
	})
	if s.Clamped() != 0 {
		t.Fatalf("Clamped = %d before any past scheduling", s.Clamped())
	}
	s.Run()
	if s.Clamped() != 2 {
		t.Fatalf("Clamped = %d, want 2", s.Clamped())
	}
}

// TestSimTypedEvents checks the handler receives each event's ref and kind
// at its cycle.
func TestSimTypedEvents(t *testing.T) {
	s := New()
	var got [][3]uint64
	s.SetHandler(handlerFunc(func(ref uint32, kind uint8) {
		got = append(got, [3]uint64{uint64(ref), uint64(kind), uint64(s.Now())})
	}))
	s.At(20, 1, 7)
	s.At(10, 2, 3)
	s.After(10, 1, 1) // same cycle as ref 2's event, scheduled later
	s.Run()
	want := [][3]uint64{{2, 3, 10}, {1, 1, 10}, {1, 7, 20}}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

// Events of different kinds share one queue and one total order:
// interleaving them at the same cycle preserves global scheduling order.
func TestSimMixedFormsSameCycleFIFO(t *testing.T) {
	s := New()
	var got appendRefs
	s.SetHandler(&got)
	for i := 0; i < 50; i++ {
		s.At(5, uint32(i), uint8(i%2))
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("mixed-kind same-cycle order broke at %d: %v", i, got[:i+1])
		}
	}
}

func TestSimRunUntil(t *testing.T) {
	s := New()
	count := 0
	for _, at := range []Cycle{5, 10, 15, 20} {
		schedAt(s, at, func() { count++ })
	}
	if n := s.RunUntil(12); n != 2 {
		t.Fatalf("RunUntil(12) processed %d, want 2", n)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if count != 4 {
		t.Fatalf("count after Run = %d, want 4", count)
	}
}

func TestSimRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(500)
	if s.Now() != 500 {
		t.Fatalf("Now = %d, want 500", s.Now())
	}
}

// Property: events always fire in nondecreasing time order regardless of the
// order they were scheduled in.
func TestSimOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		var fired []Cycle
		for _, tm := range times {
			at := Cycle(tm)
			schedAt(s, at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerialization(t *testing.T) {
	r := NewResource("link", 2) // 2 bytes/cycle
	end1 := r.Reserve(0, 100)   // occupies [0,50)
	if end1 != 50 {
		t.Fatalf("first reservation ends at %d, want 50", end1)
	}
	end2 := r.Reserve(0, 100) // queued behind the first
	if end2 != 100 {
		t.Fatalf("second reservation ends at %d, want 100", end2)
	}
	end3 := r.Reserve(200, 100) // idle gap, starts at 200
	if end3 != 250 {
		t.Fatalf("third reservation ends at %d, want 250", end3)
	}
	if r.Units() != 300 {
		t.Fatalf("Units = %d, want 300", r.Units())
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("dram", 768)
	r.Reserve(0, 768*100) // busy 100 cycles
	if got := r.Utilization(200); got < 0.49 || got > 0.51 {
		t.Fatalf("Utilization = %v, want ~0.5", got)
	}
	if got := r.Utilization(0); got != 0 {
		t.Fatalf("Utilization over zero interval = %v, want 0", got)
	}
}

func TestResourceInvalidThroughputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewResource with zero throughput did not panic")
		}
	}()
	NewResource("bad", 0)
}

// Property: completion times for a single resource are nondecreasing when
// request times are nondecreasing, and total busy time equals
// sum(units)/throughput.
func TestResourceMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("p", 16)
		now := Cycle(0)
		last := Cycle(0)
		var total uint64
		for i := 0; i < int(n); i++ {
			now += Cycle(rng.Intn(50))
			units := uint64(rng.Intn(1000) + 1)
			total += units
			end := r.Reserve(now, units)
			if end < last || end < now {
				return false
			}
			last = end
		}
		wantBusy := float64(total) / 16
		return r.busy > wantBusy-1e-6 && r.busy < wantBusy+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all events scheduled for one cycle fire in exact scheduling
// order, no matter how bursts at different cycles interleave, how large the
// bursts are, or which kind each event carries.
// This pins the (at, seq) FIFO contract the specialized heap must preserve.
func TestSimSameCycleBurstOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 200 + rng.Intn(300)
		times := make([]Cycle, n)
		var order appendRefs
		s.SetHandler(&order)
		for i := 0; i < n; i++ {
			// Few distinct timestamps => large same-cycle bursts.
			at := Cycle(rng.Intn(7))
			times[i] = at
			s.At(at, uint32(i), uint8(i%3))
		}
		s.Run()
		if len(order) != n {
			return false
		}
		// Within each timestamp, scheduling indices must ascend; across
		// timestamps, times must not decrease.
		seen := make(map[Cycle]int)
		lastAt := Cycle(0)
		for pos, idx := range order {
			at := times[idx]
			if at < lastAt {
				t.Logf("seed %d: time went backwards at pos %d", seed, pos)
				return false
			}
			lastAt = at
			if prev, ok := seen[at]; ok && idx < prev {
				t.Logf("seed %d: same-cycle order violated: idx %d after %d at t=%d", seed, idx, prev, at)
				return false
			}
			seen[at] = idx
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refEvent is one entry of refQueue.
type refEvent struct {
	at  Cycle
	seq uint64
	id  int
}

// refQueue is the reference the engine's queue must match: a flat list in
// which the next event is the (at, seq) minimum, with the engine's clamp and
// idle-clock rules.
type refQueue struct {
	now Cycle
	seq uint64
	q   []refEvent
}

func (r *refQueue) at(t Cycle, id int) {
	r.seq++
	if t < r.now {
		t = r.now
	}
	r.q = append(r.q, refEvent{at: t, seq: r.seq, id: id})
}

// min returns the index of the earliest event; the queue must not be empty.
func (r *refQueue) min() int {
	m := 0
	for i, e := range r.q {
		if e.at < r.q[m].at || (e.at == r.q[m].at && e.seq < r.q[m].seq) {
			m = i
		}
	}
	return m
}

func (r *refQueue) pop() refEvent {
	m := r.min()
	e := r.q[m]
	r.q = append(r.q[:m], r.q[m+1:]...)
	r.now = e.at
	return e
}

// The queue must dispatch in exactly the order a reference sort of
// (at, seq) produces, across everything that moves events between the
// calendar's buckets and its far heap: delays on both sides of the window
// (0, W-1, W, W+1 up to 3W), same-cycle bursts, far events whose cycle later
// receives direct pushes, clamped past events, RunUntil slices (including the
// idle-clock advance on an empty queue), single Steps, and a hook that stops
// the run followed by a resume. Now and Pending must agree with the
// reference after every call.
//
// Each sequence runs twice: on a new simulator, and on one that a hook
// stopped with events queued in its buckets and its far heap and that was
// then Reset. A leftover event, hook, handler, clock or counter fails the
// second.
func TestSimHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		checkReferenceOrder(t, New(), seed)
		checkReferenceOrder(t, stoppedThenReset(t), seed)
	}
}

// stoppedThenReset returns a simulator that ran part of a queue spanning
// both sides of the calendar window, including clamped events, until a
// hook stopped it, and was then Reset. Reset must drop the handler, so a
// dropped event can no longer reach it, and any that still fired would
// break the reference order.
func stoppedThenReset(t *testing.T) *Sim {
	t.Helper()
	s := New()
	stale := register(s, func() {})
	for i := Cycle(0); i < 3*calendarWindow; i += 7 {
		s.At(i, stale, 0)
	}
	s.AddHook(1, func() error {
		if s.Now() > calendarWindow {
			s.At(0, stale, 0) // clamped
			return errors.New("stop")
		}
		return nil
	})
	s.Run()
	if s.StopErr() == nil || s.Pending() == 0 || s.Clamped() == 0 {
		t.Fatalf("set-up did not stop mid-queue: StopErr %v, Pending %d, Clamped %d", s.StopErr(), s.Pending(), s.Clamped())
	}
	s.Reset()
	if s.h != nil || s.Now() != 0 || s.Pending() != 0 || s.Processed() != 0 || s.Clamped() != 0 || s.StopErr() != nil {
		t.Fatalf("Reset left handler %v, Now %d, Pending %d, Processed %d, Clamped %d, StopErr %v",
			s.h, s.Now(), s.Pending(), s.Processed(), s.Clamped(), s.StopErr())
	}
	return s
}

// checkReferenceOrder drives s, which must be in New's state, through the
// randomized sequence of the given seed against the reference queue.
func checkReferenceOrder(t *testing.T, s *Sim, seed int64) {
	t.Helper()
	const W = calendarWindow
	delays := []Cycle{0, 1, 2, 7, 63, 64, 511, W - 1, W, W + 1, 2*W - 1, 2 * W, 2*W + 1, 3 * W}
	rng := rand.New(rand.NewSource(seed))
	ref := &refQueue{}
	var fails []string
	var leaf []bool // by id: leaves schedule nothing, chain events schedule their successor
	var farAt []Cycle
	budget := 10000
	sched := func(at Cycle, isLeaf bool) {
		budget--
		leaf = append(leaf, isLeaf)
		s.At(at, uint32(len(leaf)-1), 0)
		ref.at(at, len(leaf)-1)
	}
	s.SetHandler(handlerFunc(func(r uint32, _ uint8) {
		id := int(r)
		if want := ref.pop(); id != want.id || s.Now() != want.at {
			fails = append(fails, fmt.Sprintf("got id %d at %d, want id %d at %d", id, s.Now(), want.id, want.at))
		}
		if leaf[id] || budget <= 0 {
			return
		}
		now := s.Now()
		d := delays[rng.Intn(len(delays))]
		if rng.Intn(2) == 0 {
			d = Cycle(rng.Intn(3*W + 1))
		}
		if d >= W {
			farAt = append(farAt, now+d)
		}
		sched(now+d, false)
		switch rng.Intn(6) {
		case 0: // a same-cycle burst
			for j := rng.Intn(16); j >= 0; j-- {
				sched(now, true)
			}
		case 1: // in the past: clamped to now
			sched(now-Cycle(rng.Intn(int(now)+1)), true)
		case 2, 3: // a direct push into a cycle a far event was scheduled for
			for i := 0; i < len(farAt); {
				if farAt[i] < now {
					farAt[i] = farAt[len(farAt)-1]
					farAt = farAt[:len(farAt)-1]
					continue
				}
				if farAt[i]-now < W {
					sched(farAt[i], true)
					break
				}
				i++
			}
		}
	}))
	stop := errors.New("stop")
	stopAt := uint64(0)
	s.AddHook(1, func() error {
		if s.Processed() == stopAt {
			return stop
		}
		return nil
	})
	check := func(call string) {
		if s.Now() != ref.now || s.Pending() != len(ref.q) {
			fails = append(fails, fmt.Sprintf("after %s: Now %d Pending %d, want %d and %d",
				call, s.Now(), s.Pending(), ref.now, len(ref.q)))
		}
	}
	for i := 0; i < 100; i++ {
		sched(ref.now+delays[rng.Intn(len(delays))], false)
	}
	for len(fails) == 0 && len(ref.q) > 0 {
		if budget > 0 && rng.Intn(4) == 0 {
			sched(ref.now+Cycle(rng.Intn(3*W+1)), true)
		}
		switch rng.Intn(3) {
		case 0:
			s.Step()
			check("Step")
		case 1:
			limit := ref.now + Cycle(rng.Intn(2*W))
			s.RunUntil(limit)
			if len(ref.q) == 0 && ref.now < limit {
				ref.now = limit // idle-clock advance
			}
			if len(ref.q) > 0 && ref.q[ref.min()].at <= limit {
				fails = append(fails, fmt.Sprintf("RunUntil(%d) left an event due at %d", limit, ref.q[ref.min()].at))
			}
			check("RunUntil")
		case 2:
			stopAt = s.Processed() + 1 + uint64(rng.Intn(300))
			s.Run()
			if len(ref.q) > 0 && (!errors.Is(s.StopErr(), stop) || s.Processed() != stopAt) {
				fails = append(fails, fmt.Sprintf("Run with queued events returned at %d (StopErr %v), want a hook stop at %d",
					s.Processed(), s.StopErr(), stopAt))
			}
			stopAt = 0
			check("stopped Run")
		}
	}
	// Drained: RunUntil advances the idle clock, and a far event
	// scheduled from there still fires on time.
	s.RunUntil(ref.now + 5)
	ref.now += 5
	check("idle RunUntil")
	sched(ref.now+2*W+3, true)
	s.Run()
	check("final Run")
	if len(fails) > 0 {
		t.Fatalf("seed %d: %d mismatches, first: %s", seed, len(fails), fails[0])
	}
	if s.Processed() != uint64(len(leaf)) {
		t.Fatalf("seed %d: dispatched %d of %d events", seed, s.Processed(), len(leaf))
	}
}

func BenchmarkSimScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			schedAt(s, Cycle(j%97), func() {})
		}
		s.Run()
	}
}
