// Package engine provides the discrete-event simulation core used by the
// MCM-GPU model: a simulated clock, an event queue, and bandwidth-limited
// resources that model shared components (DRAM partitions, on-package links,
// crossbars, SM issue slots) via next-free-time reservation.
//
// The engine is deliberately small and deterministic: events scheduled for
// the same cycle fire in scheduling order, so a simulation with a fixed
// configuration and seed always produces identical results.
//
// Events are scheduled with AtEvent/AfterEvent, which dispatch to a
// long-lived receiver implementing Event with a small kind tag, so the hot
// paths that fire millions of events schedule without allocating; see
// core's pooled warp/load/store contexts.
//
// Run and RunUntil consult an ordered list of periodic hooks (AddHook): the
// budget check, the invariant auditor and the metrics sampler. Hooks only
// observe the simulation, so a hooked run is byte-identical to an unhooked
// one until a hook stops it.
package engine

import "fmt"

// Cycle is a point in simulated time, measured in GPU core cycles.
// The model clocks the GPU at 1 GHz (Table 3 of the paper), so one cycle is
// one nanosecond; bandwidths expressed in GB/s translate directly to
// bytes per cycle.
type Cycle uint64

// Event is the receiver side of the scheduling API. A receiver with more
// than one schedulable action distinguishes them by the kind tag it passed
// to AtEvent/AfterEvent. Implementations are typically pooled, long-lived
// objects, which is what makes scheduling allocation-free: an interface
// value holding an existing pointer does not allocate.
type Event interface {
	Dispatch(kind uint8)
}

// event is one queue entry.
type event struct {
	at   Cycle
	seq  uint64
	ev   Event
	kind uint8
}

// hook is one periodic hook installed by AddHook.
type hook struct {
	fn    func() error
	every uint64
	since uint64
}

// before reports whether e fires ahead of o: earlier cycle first, and within
// a cycle, scheduling order (seq). This is a strict total order — no two
// events compare equal — so any correct heap pops the queue in exactly one
// sequence, which is what keeps the specialized heap byte-identical to the
// container/heap implementation it replaced.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New.
//
// The queue is a hand-specialized 4-ary min-heap over event values with
// inlined sift-up/sift-down. Relative to container/heap this removes the
// interface{} boxing of every push/pop (one heap allocation per event) and
// the Less/Swap indirect calls; 4-ary halves the tree depth, trading a few
// extra comparisons per level for fewer cache-missing levels on the
// million-event queues the simulator builds.
type Sim struct {
	now     Cycle
	events  []event
	seq     uint64
	nRun    uint64
	clamped uint64

	// Periodic hooks in install order (see AddHook). Each keeps its own
	// interval, so the invariant auditor can sweep at a coarser cadence than
	// the budget check. With no hook installed Run takes its unhooked loop.
	hooks   []hook
	stopErr error
}

// New returns an empty simulator positioned at cycle 0.
func New() *Sim {
	return &Sim{}
}

// Now returns the current simulated time.
func (s *Sim) Now() Cycle { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.nRun }

// Pending returns the number of events waiting in the queue.
func (s *Sim) Pending() int { return len(s.events) }

// Clamped returns the number of events that were scheduled in the past and
// clamped to the current time. A handful per run is expected floating-point
// slop in callers; a count that grows with the event count indicates a
// causality bug upstream that the clamp would otherwise hide.
func (s *Sim) Clamped() uint64 { return s.clamped }

// clamp maps a past timestamp to now (counting it) so the simulation keeps
// making forward progress; see Clamped.
func (s *Sim) clamp(t Cycle) Cycle {
	if t < s.now {
		s.clamped++
		return s.now
	}
	return t
}

// AtEvent schedules ev.Dispatch(kind) at absolute time t. Scheduling in the
// past is an error in the caller; the engine clamps it to the current time
// (counted by Clamped) so the simulation still makes forward progress, which
// keeps small floating-point slop in callers from wedging a run. The event
// entry stores the receiver and tag inline, so scheduling allocates nothing.
func (s *Sim) AtEvent(t Cycle, ev Event, kind uint8) {
	s.seq++
	s.push(event{at: s.clamp(t), seq: s.seq, ev: ev, kind: kind})
}

// AfterEvent schedules ev.Dispatch(kind) delay cycles from now.
func (s *Sim) AfterEvent(delay Cycle, ev Event, kind uint8) {
	s.AtEvent(s.now+delay, ev, kind)
}

// push inserts e, sifting up with the hole technique: parents shift down
// into the hole and e is written once at its final slot.
func (s *Sim) push(e event) {
	h := append(s.events, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.events = h
}

// pop removes and returns the earliest event, sifting the displaced tail
// element down from the root.
func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = event{} // release the vacated slot's receiver reference
	h = h[:n]
	s.events = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			// Smallest of up to four children.
			m := c
			hi := c + 4
			if hi > n {
				hi = n
			}
			for j := c + 1; j < hi; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&e) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	return top
}

// Step executes the earliest pending event and reports whether one existed.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.pop()
	s.now = e.at
	s.nRun++
	e.ev.Dispatch(e.kind)
	return true
}

// AddHook appends fn to the periodic hooks Run and RunUntil consult: fn runs
// once every `every` dispatched events, after the hooks added before it. A
// non-nil return stops the loop with the queue intact, skips the hooks after
// fn for that event, and is retrievable through StopErr until the next
// Run/RunUntil call. fn must only observe the simulation (Now, Processed,
// Pending and the model's counters) and decide, which is what keeps a run
// with installed-but-untripped hooks byte-identical to an unhooked run.
// Hooks stay installed for the simulator's lifetime.
func (s *Sim) AddHook(every uint64, fn func() error) {
	s.hooks = append(s.hooks, hook{fn: fn, every: every})
}

// StopErr returns the error with which a hook stopped the most recent
// Run/RunUntil call, or nil if the queue drained (or the limit was reached)
// normally.
func (s *Sim) StopErr() error { return s.stopErr }

// tick advances every hook by one dispatched event, in install order, and
// reports whether one stopped the loop. Callers only invoke it when a hook
// is installed.
func (s *Sim) tick() bool {
	for i := range s.hooks {
		h := &s.hooks[i]
		h.since++
		if h.since >= h.every {
			h.since = 0
			if err := h.fn(); err != nil {
				s.stopErr = err
				return true
			}
		}
	}
	return false
}

// Run executes events until the queue drains and returns the number of
// events processed by this call. If a hook stops the loop, the queue is left
// intact and StopErr reports why.
func (s *Sim) Run() uint64 {
	start := s.nRun
	if len(s.hooks) == 0 {
		for s.Step() {
		}
		return s.nRun - start
	}
	s.stopErr = nil
	for s.Step() {
		if s.tick() {
			break
		}
	}
	return s.nRun - start
}

// RunUntil executes events with timestamps <= limit. It returns the number
// of events processed by this call. Events beyond the limit remain queued.
// Hooks are honored exactly as in Run.
func (s *Sim) RunUntil(limit Cycle) uint64 {
	start := s.nRun
	hooked := len(s.hooks) > 0
	if hooked {
		s.stopErr = nil
	}
	for len(s.events) > 0 && s.events[0].at <= limit {
		s.Step()
		if hooked && s.tick() {
			return s.nRun - start
		}
	}
	if s.now < limit && len(s.events) == 0 {
		s.now = limit
	}
	return s.nRun - start
}

// Resource models a component with finite throughput using next-free-time
// reservation: a transfer of n units occupies the resource for n*cyclesPer
// cycles starting no earlier than the later of the request time and the end
// of the previous reservation. Queuing delay under contention and bandwidth
// saturation both emerge from this rule.
//
// Resources are not safe for concurrent use; the simulation is single
// threaded by design.
type Resource struct {
	name      string
	cyclesPer float64 // cycles consumed per unit transferred
	nextFree  float64
	busy      float64 // total occupied cycles
	units     uint64  // total units transferred
	resv      uint64  // number of reservations

	// Interval-utilization settlement state (see BusyThrough). Reserve
	// credits the full transfer duration to busy at reservation time, so on
	// a saturated resource busy runs ahead of the clock with nextFree;
	// dividing it by elapsed cycles mid-run used to report utilizations
	// far above 1. BusyThrough clips occupancy to an advancing watermark
	// instead: done is the busy time credited through mark, and tailLo is
	// where the not-yet-settled occupancy span begins. busy itself is
	// untouched, so end-of-run totals are exactly what they always were.
	done   float64 // busy cycles settled at or before mark
	mark   float64 // settlement watermark (monotone)
	tailLo float64 // start of the unsettled occupancy span
}

// NewResource creates a resource named name with the given throughput in
// units per cycle. A DRAM partition delivering 768 GB/s at 1 GHz is
// NewResource("dram0", 768) with bytes as the unit. unitsPerCycle must be
// positive.
func NewResource(name string, unitsPerCycle float64) *Resource {
	if unitsPerCycle <= 0 {
		panic(fmt.Sprintf("engine: resource %q: non-positive throughput %v", name, unitsPerCycle))
	}
	return &Resource{name: name, cyclesPer: 1 / unitsPerCycle}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// window computes a prospective reservation's timing on the resource's
// fractional timeline: transfers start at the later of the request time and
// the end of the previous reservation, occupy dur cycles, and finish at
// end = start + dur. It is shared by Reserve and Delay so the two can never
// disagree on timing. dur is returned separately (rather than recovered as
// end-start) because busy-cycle accounting sums exact durations; the
// subtraction would reintroduce rounding error at large timestamps.
func (r *Resource) window(now Cycle, units uint64) (start, dur, end float64) {
	start = float64(now)
	if r.nextFree > start {
		start = r.nextFree
	}
	dur = float64(units) * r.cyclesPer
	return start, dur, start + dur
}

// toCycle discretizes a fractional completion time onto the cycle grid.
// Resource timelines accumulate in float64 so fractional occupancies from
// non-power-of-two bandwidths don't drift; the +0.5 rounds the published
// completion to the nearest cycle. This is the single place that rounding
// contract lives — every externally visible completion time funnels through
// it, which is what keeps Reserve and Delay mutually consistent.
func toCycle(t float64) Cycle { return Cycle(t + 0.5) }

// Reserve books units of transfer beginning no earlier than now and returns
// the cycle at which the transfer completes. The resource is busy from
// max(now, previous completion) until the returned time.
func (r *Resource) Reserve(now Cycle, units uint64) Cycle {
	start, dur, end := r.window(now, units)
	if r.busy == r.done {
		// No unsettled occupancy: this reservation begins a fresh span.
		// Occupancy already settled through mark must not be re-counted,
		// so the span cannot start before the watermark.
		r.tailLo = start
		if r.tailLo < r.mark {
			r.tailLo = r.mark
		}
	}
	r.nextFree = end
	r.busy += dur
	r.units += units
	r.resv++
	return toCycle(end)
}

// Delay returns how long a reservation of units would wait plus transfer
// time if issued at now, without reserving.
func (r *Resource) Delay(now Cycle, units uint64) Cycle {
	_, _, end := r.window(now, units)
	return toCycle(end) - now
}

// Units returns the total units transferred through the resource.
func (r *Resource) Units() uint64 { return r.units }

// Reservations returns the number of reservations made.
func (r *Resource) Reservations() uint64 { return r.resv }

// BusyCycles returns the total cycles the resource has been occupied,
// including occupancy booked beyond the current simulated time. For a
// time-clipped view use BusyThrough.
func (r *Resource) BusyCycles() float64 { return r.busy }

// BusyThrough returns the busy cycles the resource accumulated at or before
// now, advancing the settlement watermark to now. This is the quantity
// interval utilization must be computed from: Reserve credits a transfer's
// full duration to BusyCycles immediately, so on a saturated resource the
// raw total runs arbitrarily far ahead of the clock.
//
// Settlement is exact whenever now has reached the end of all booked
// occupancy (the rounding contract of toCycle decides "reached", so a
// drained run settles to exactly BusyCycles). Mid-span, occupancy is
// credited pro-rata over the unsettled span [tailLo, nextFree): exact for a
// saturated resource (the span is fully busy — the case the clipping
// exists for) and an approximation when the span has internal idle gaps.
// The approximation preserves the three properties samplers rely on:
// BusyThrough never exceeds now, it is monotone for monotone queries, and
// successive deltas never exceed the elapsed cycles between them and sum to
// BusyCycles once the resource drains.
//
// Queries at or before the current watermark return the settled value
// unchanged; interval samplers always query with monotone timestamps.
func (r *Resource) BusyThrough(now Cycle) float64 {
	t := float64(now)
	if t <= r.mark {
		return r.done
	}
	if now >= toCycle(r.nextFree) {
		// All booked occupancy is over (on the published cycle grid):
		// settle everything. Re-basing done on busy here also resyncs any
		// float drift the pro-rata branch accumulated.
		r.done = r.busy
		r.mark = t
		r.tailLo = r.nextFree
		return r.done
	}
	lo := r.tailLo
	if lo < r.mark {
		lo = r.mark
	}
	if t <= lo {
		// The unsettled span starts in the future; nothing new to credit.
		r.mark = t
		return r.done
	}
	pending := r.busy - r.done
	if pending < 0 {
		pending = 0
	}
	credit := pending * (t - lo) / (r.nextFree - lo)
	if credit > pending {
		credit = pending
	}
	r.done += credit
	r.mark = t
	r.tailLo = t
	return r.done
}

// Utilization returns the fraction of elapsed cycles the resource was busy,
// counting only occupancy at or before elapsed (see BusyThrough) — a
// saturated resource sampled mid-run reads ~1.0, never more. It reports 0
// for a zero elapsed interval. For a fully drained run the result is
// identical to BusyCycles()/elapsed.
func (r *Resource) Utilization(elapsed Cycle) float64 {
	if elapsed == 0 {
		return 0
	}
	return r.BusyThrough(elapsed) / float64(elapsed)
}

// Reset clears reservation history but keeps the configured throughput.
func (r *Resource) Reset() {
	r.nextFree = 0
	r.busy = 0
	r.units = 0
	r.resv = 0
	r.done = 0
	r.mark = 0
	r.tailLo = 0
}
