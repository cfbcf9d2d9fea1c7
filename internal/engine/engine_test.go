package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// funcEvent adapts a closure to Event so tests can schedule one-off actions
// without declaring a receiver type.
type funcEvent func()

func (f funcEvent) Dispatch(uint8) { f() }

// schedAt schedules fn at absolute time t.
func schedAt(s *Sim, t Cycle, fn func()) { s.AtEvent(t, funcEvent(fn), 0) }

// schedAfter schedules fn delay cycles from now.
func schedAfter(s *Sim, delay Cycle, fn func()) { s.AfterEvent(delay, funcEvent(fn), 0) }

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
	schedAt(s, 100, func() {
		schedAt(s, 50, func() {})      // past: clamped
		s.AtEvent(10, countEv(nil), 0) // past: clamped
		schedAt(s, 100, func() {})     // now: not clamped
		schedAfter(s, 5, func() {})    // future: not clamped
	})
	if s.Clamped() != 0 {
		t.Fatalf("Clamped = %d before any past scheduling", s.Clamped())
	}
	s.Run()
	if s.Clamped() != 2 {
		t.Fatalf("Clamped = %d, want 2", s.Clamped())
	}
}

// countEv is a trivial Event recording dispatches for tests.
type countEv []uint8

func (c countEv) Dispatch(uint8) {}

// recordEv appends (id, kind, time) on dispatch.
type recordEv struct {
	s   *Sim
	id  int
	out *[][3]uint64
}

func (r *recordEv) Dispatch(kind uint8) {
	*r.out = append(*r.out, [3]uint64{uint64(r.id), uint64(kind), uint64(r.s.Now())})
}

func TestSimTypedEvents(t *testing.T) {
	s := New()
	var got [][3]uint64
	a := &recordEv{s: s, id: 1, out: &got}
	b := &recordEv{s: s, id: 2, out: &got}
	s.AtEvent(20, a, 7)
	s.AtEvent(10, b, 3)
	s.AfterEvent(10, a, 1) // same cycle as b's event, scheduled later
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

// Events of different receiver types share one queue and one total order:
// interleaving them at the same cycle preserves global scheduling order.
func TestSimMixedFormsSameCycleFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		if i%2 == 0 {
			schedAt(s, 5, func() { got = append(got, i) })
		} else {
			s.AtEvent(5, appendEv{&got, i}, 0)
		}
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("mixed-form same-cycle order broke at %d: %v", i, got[:i+1])
		}
	}
}

type appendEv struct {
	out *[]int
	v   int
}

func (a appendEv) Dispatch(uint8) { *a.out = append(*a.out, a.v) }

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
	if r.Reservations() != 3 {
		t.Fatalf("Reservations = %d, want 3", r.Reservations())
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

func TestResourceDelayDoesNotReserve(t *testing.T) {
	r := NewResource("x", 1)
	d := r.Delay(0, 10)
	if d != 10 {
		t.Fatalf("Delay = %d, want 10", d)
	}
	if r.Units() != 0 || r.BusyCycles() != 0 {
		t.Fatalf("Delay mutated the resource")
	}
	end := r.Reserve(0, 10)
	if end != 10 {
		t.Fatalf("Reserve after Delay ends at %d, want 10", end)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x", 4)
	r.Reserve(0, 400)
	r.Reset()
	if r.Units() != 0 || r.BusyCycles() != 0 || r.Reservations() != 0 {
		t.Fatalf("Reset did not clear counters")
	}
	if end := r.Reserve(0, 4); end != 1 {
		t.Fatalf("post-Reset reservation ends at %d, want 1", end)
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
		return r.BusyCycles() > wantBusy-1e-6 && r.BusyCycles() < wantBusy+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all events scheduled for one cycle fire in exact scheduling
// order, no matter how bursts at different cycles interleave, how large the
// bursts are, or which receiver type each event uses.
// This pins the (at, seq) FIFO contract the specialized heap must preserve.
func TestSimSameCycleBurstOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 200 + rng.Intn(300)
		times := make([]Cycle, n)
		var order []int
		for i := 0; i < n; i++ {
			// Few distinct timestamps => large same-cycle bursts.
			at := Cycle(rng.Intn(7))
			times[i] = at
			i := i
			if i%3 == 0 {
				s.AtEvent(at, appendEv{&order, i}, 0)
			} else {
				schedAt(s, at, func() { order = append(order, i) })
			}
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

// orderEv reports its dispatch to the test driving it.
type orderEv struct {
	fn func(id int)
	id int
}

func (e *orderEv) Dispatch(uint8) { e.fn(e.id) }

// The queue must dispatch in exactly the order a reference sort of
// (at, seq) produces, across everything that moves events between the
// calendar's buckets and its far heap: delays on both sides of the window
// (0, W-1, W, W+1 up to 3W), same-cycle bursts, far events whose cycle later
// receives direct pushes, clamped past events, RunUntil slices (including the
// idle-clock advance on an empty queue), single Steps, and a hook that stops
// the run followed by a resume. Now and Pending must agree with the
// reference after every call.
func TestSimHeapMatchesReferenceOrder(t *testing.T) {
	const W = calendarWindow
	delays := []Cycle{0, 1, 2, 7, 63, 64, 511, W - 1, W, W + 1, 2*W - 1, 2 * W, 2*W + 1, 3 * W}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ref := &refQueue{}
		var fails []string
		var leaf []bool // by id: leaves schedule nothing, chain events schedule their successor
		var farAt []Cycle
		budget := 10000
		sched := func(at Cycle, isLeaf bool, fn func(int)) {
			budget--
			leaf = append(leaf, isLeaf)
			s.AtEvent(at, &orderEv{fn: fn, id: len(leaf) - 1}, 0)
			ref.at(at, len(leaf)-1)
		}
		var onDispatch func(id int)
		onDispatch = func(id int) {
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
			sched(now+d, false, onDispatch)
			switch rng.Intn(6) {
			case 0: // a same-cycle burst
				for j := rng.Intn(16); j >= 0; j-- {
					sched(now, true, onDispatch)
				}
			case 1: // in the past: clamped to now
				sched(now-Cycle(rng.Intn(int(now)+1)), true, onDispatch)
			case 2, 3: // a direct push into a cycle a far event was scheduled for
				for i := 0; i < len(farAt); {
					if farAt[i] < now {
						farAt[i] = farAt[len(farAt)-1]
						farAt = farAt[:len(farAt)-1]
						continue
					}
					if farAt[i]-now < W {
						sched(farAt[i], true, onDispatch)
						break
					}
					i++
				}
			}
		}
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
			sched(ref.now+delays[rng.Intn(len(delays))], false, onDispatch)
		}
		for len(fails) == 0 && len(ref.q) > 0 {
			if budget > 0 && rng.Intn(4) == 0 {
				sched(ref.now+Cycle(rng.Intn(3*W+1)), true, onDispatch)
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
		sched(ref.now+2*W+3, true, onDispatch)
		s.Run()
		check("final Run")
		if len(fails) > 0 {
			t.Fatalf("seed %d: %d mismatches, first: %s", seed, len(fails), fails[0])
		}
		if s.Processed() != uint64(len(leaf)) {
			t.Fatalf("seed %d: dispatched %d of %d events", seed, s.Processed(), len(leaf))
		}
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
