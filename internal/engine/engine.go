// Package engine provides the discrete-event simulation core used by the
// MCM-GPU model: a simulated clock, an event queue, and bandwidth-limited
// resources that model shared components (DRAM partitions, on-package links,
// crossbars, SM issue slots) via next-free-time reservation.
//
// The engine is deliberately small and deterministic: events fire in
// (time, scheduling order), so events scheduled for the same cycle fire in
// the order they were scheduled, and a simulation with a fixed configuration
// and seed always produces identical results.
//
// An event is a (ref, kind) pair of plain integers, and every event of a
// simulator goes to its one Handler: core's machine, which keeps its warp,
// load and store contexts in index-addressed arenas and reaches the receiver
// through one switch on the kind. The queue therefore holds no pointer the
// garbage collector must trace, and scheduling allocates nothing once the
// queue has grown to its high-water mark.
//
// The queue is a calendar queue: events due within a fixed window of the
// clock wait in per-cycle FIFO buckets, and only the rare events due later
// wait in a heap until the clock comes within a window of them.
//
// Run and RunUntil consult an ordered list of periodic hooks (AddHook): the
// budget check, the invariant auditor and the metrics sampler. Hooks only
// observe the simulation, so a hooked run is byte-identical to an unhooked
// one until a hook stops it.
package engine

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in GPU core cycles.
// The model clocks the GPU at 1 GHz (Table 3 of the paper), so one cycle is
// one nanosecond; bandwidths expressed in GB/s translate directly to
// bytes per cycle.
type Cycle uint64

// Handler receives every event a simulator dispatches: the ref and kind the
// event was scheduled with by At or After. What they mean is the handler's
// business; core's machine reads kind as the action and ref as the index of
// the context it acts on.
type Handler interface {
	Dispatch(ref uint32, kind uint8)
}

// calendarWindow is the calendar's span in cycles: an event due less than
// calendarWindow cycles after the clock goes straight into its cycle's
// bucket. It must be a power of two (bucket = cycle & (calendarWindow-1))
// and a multiple of 64 (one occupancy word covers 64 buckets). Every event
// the paper's workloads schedule at their default link bandwidths lands less
// than 4096 cycles ahead (95% less than 512), so the far heap only sees
// traffic on starved links.
const (
	calendarWindow = 4096
	occWords       = calendarWindow / 64
)

// node is one near event, chained into its bucket's FIFO (or the free list)
// through next, an index into Sim.nodes. It is 12 bytes and holds no
// pointer, so the collector never scans the slab.
type node struct {
	ref  uint32
	next int32
	kind uint8
}

// bucket is the FIFO of near events due in one cycle. head and tail are
// meaningful only while the bucket's occupancy bit is set.
type bucket struct{ head, tail int32 }

// event is one far-heap entry: 24 bytes, no pointer.
type event struct {
	at   Cycle
	seq  uint64
	ref  uint32
	kind uint8
}

// hook is one periodic hook installed by AddHook.
type hook struct {
	fn    func() error
	every uint64
	due   uint64 // the Processed count at which fn next runs
}

// before reports whether e fires ahead of o: earlier cycle first, and within
// a cycle, scheduling order (seq). This is a strict total order — no two
// events compare equal — so the heap pops in exactly one sequence.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New.
//
// Near events (due before now+calendarWindow) sit in per-cycle FIFO buckets
// chained through one node slab with a free list, and an occupancy bitmap
// finds the next non-empty cycle, so scheduling and dispatch are O(1). Far
// events wait in a 4-ary (at, seq) min-heap and move into their bucket as
// soon as the clock comes within one window of them. That migration happens
// when the clock advances, before any event of the new cycle runs and so
// before anything can be scheduled directly into a migrated cycle; and a far
// event was necessarily scheduled before any direct one for its cycle (the
// clock only moves forward). Each bucket therefore fills in seq order, and
// dispatch follows exactly the (at, seq) order of a single priority queue.
// Queue memory is the fixed calendar plus one slab node or heap entry per
// in-flight event.
type Sim struct {
	h       Handler
	now     Cycle
	seq     uint64
	nRun    uint64
	clamped uint64

	buckets [calendarWindow]bucket
	occ     [occWords]uint64 // bit b set: bucket b holds events
	nodes   []node           // slab backing every bucket's FIFO
	free    int32            // head of the free node list, -1 if empty
	near    int              // events in buckets
	far     []event          // 4-ary min-heap of events due at or after now+calendarWindow

	// Periodic hooks in install order (see AddHook). Each keeps its own
	// interval, so the invariant auditor can sweep at a coarser cadence than
	// the budget check, and due is the earliest count at which one runs, so
	// the loop compares one counter per dispatch however many are installed.
	// With no hook installed Run takes its unhooked loop.
	hooks   []hook
	due     uint64
	stopErr error
}

// New returns an empty simulator positioned at cycle 0.
func New() *Sim {
	return &Sim{free: -1}
}

// SetHandler makes h the receiver of every event s dispatches.
func (s *Sim) SetHandler(h Handler) { s.h = h }

// Reset returns s to New's state: cycle 0, no queued events, no hooks, no
// handler and zeroed counters. It keeps the capacity of the node slab and
// the far heap, so a simulator reused for another run schedules without
// regrowing them. It may be called on a simulator a hook stopped
// mid-queue; the dropped events are discarded.
func (s *Sim) Reset() {
	nodes, far := s.nodes[:0], s.far[:0]
	*s = Sim{free: -1, nodes: nodes, far: far}
}

// Now returns the current simulated time.
func (s *Sim) Now() Cycle { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.nRun }

// Pending returns the number of events waiting in the queue.
func (s *Sim) Pending() int { return s.near + len(s.far) }

// Clamped returns the number of events that were scheduled in the past and
// clamped to the current time. A handful per run is expected floating-point
// slop in callers; a count that grows with the event count indicates a
// causality bug upstream that the clamp would otherwise hide.
func (s *Sim) Clamped() uint64 { return s.clamped }

// At schedules the handler's Dispatch(ref, kind) at absolute time t.
// Scheduling in the past is an error in the caller; the engine clamps it to
// the current time (counted by Clamped) so the simulation still makes
// forward progress, which keeps small floating-point slop in callers from
// wedging a run. The queue stores ref and kind inline, so scheduling
// allocates nothing once the queue has grown to its high-water mark.
func (s *Sim) At(t Cycle, ref uint32, kind uint8) {
	s.seq++
	if t < s.now {
		s.clamped++
		t = s.now
	}
	if t-s.now < calendarWindow {
		s.enqueue(t, ref, kind)
		return
	}
	s.push(event{at: t, seq: s.seq, ref: ref, kind: kind})
}

// After schedules the handler's Dispatch(ref, kind) delay cycles from now.
func (s *Sim) After(delay Cycle, ref uint32, kind uint8) {
	s.At(s.now+delay, ref, kind)
}

// enqueue appends a near event to the tail of cycle t's bucket.
func (s *Sim) enqueue(t Cycle, ref uint32, kind uint8) {
	i := s.free
	if i >= 0 {
		s.free = s.nodes[i].next
		s.nodes[i] = node{ref: ref, kind: kind}
	} else {
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, node{ref: ref, kind: kind})
	}
	b := int(t & (calendarWindow - 1))
	bk := &s.buckets[b]
	if w, bit := b>>6, uint64(1)<<(b&63); s.occ[w]&bit == 0 {
		s.occ[w] |= bit
		bk.head = i
	} else {
		s.nodes[bk.tail].next = i
	}
	bk.tail = i
	s.near++
}

// nextNear returns the cycle of the earliest near event: the first occupied
// bucket at or after the clock's, wrapping around the calendar. Callers
// ensure s.near > 0.
func (s *Sim) nextNear() Cycle {
	b := int(s.now & (calendarWindow - 1))
	w := b >> 6
	m := s.occ[w] >> (b & 63) << (b & 63)
	for m == 0 {
		w = (w + 1) & (occWords - 1)
		m = s.occ[w]
	}
	d := (w<<6 + bits.TrailingZeros64(m) - b) & (calendarWindow - 1)
	return s.now + Cycle(d)
}

// push inserts e into the far heap, sifting up with the hole technique:
// parents shift down into the hole and e is written once at its final slot.
func (s *Sim) push(e event) {
	h := append(s.far, e)
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
	s.far = h
}

// pop removes and returns the far heap's earliest event, sifting the
// displaced tail element down from the root.
func (s *Sim) pop() event {
	h := s.far
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	s.far = h
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

// next returns the time of the earliest pending event.
func (s *Sim) next() (Cycle, bool) {
	if s.near > 0 {
		return s.nextNear(), true
	}
	if len(s.far) > 0 {
		return s.far[0].at, true
	}
	return 0, false
}

// Step executes the earliest pending event and reports whether one existed.
func (s *Sim) Step() bool {
	t, ok := s.next()
	if ok {
		s.dispatch(t)
	}
	return ok
}

// dispatch advances the clock to t, the earliest pending event's cycle, and
// runs the head of t's bucket. Far events that t brings within a window of
// the clock move into their buckets first, in (at, seq) order; when the
// buckets were empty that includes the event at t itself.
func (s *Sim) dispatch(t Cycle) {
	if t != s.now {
		s.now = t
		for len(s.far) > 0 && s.far[0].at-t < calendarWindow {
			e := s.pop()
			s.enqueue(e.at, e.ref, e.kind)
		}
	}
	b := int(t & (calendarWindow - 1))
	bk := &s.buckets[b]
	i := bk.head
	n := &s.nodes[i]
	ref, kind := n.ref, n.kind
	if i == bk.tail {
		s.occ[b>>6] &^= 1 << (b & 63)
	} else {
		bk.head = n.next
	}
	n.next = s.free
	s.free = i
	s.near--
	s.nRun++
	s.h.Dispatch(ref, kind)
}

// AddHook appends fn to the periodic hooks Run and RunUntil consult: fn runs
// once every `every` dispatched events, counted from the Processed count at
// the call, after the hooks added before it that are due at the same event.
// A non-nil return stops the loop with the queue intact, skips the later
// hooks due at that event, and is retrievable through StopErr until the
// next Run/RunUntil call. A hook that falls due outside Run and RunUntil
// (events Step dispatches count too), or that a stop skipped, runs at the
// next event either dispatches, and counts its next interval from there.
// fn must only observe the simulation (Now, Processed, Pending and the
// model's counters) and decide, which is what keeps a run with
// installed-but-untripped hooks byte-identical to an unhooked run. Hooks
// stay installed until Reset.
func (s *Sim) AddHook(every uint64, fn func() error) {
	due := s.nRun + every
	if len(s.hooks) == 0 || due < s.due {
		s.due = due
	}
	s.hooks = append(s.hooks, hook{fn: fn, every: every, due: due})
}

// StopErr returns the error with which a hook stopped the most recent
// Run/RunUntil call, or nil if the queue drained (or the limit was reached)
// normally.
func (s *Sim) StopErr() error { return s.stopErr }

// runHooks runs, in install order, every hook due at the event just
// dispatched, and reports whether one stopped the loop. Callers invoke it
// only when a hook is installed and the earliest is due.
func (s *Sim) runHooks() bool {
	for i := 0; i < len(s.hooks); i++ {
		h := &s.hooks[i]
		if h.due > s.nRun {
			continue
		}
		h.due = s.nRun + h.every
		if err := h.fn(); err != nil {
			s.stopErr = err
			break
		}
	}
	s.due = s.hooks[0].due
	for _, h := range s.hooks[1:] {
		s.due = min(s.due, h.due)
	}
	return s.stopErr != nil
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
		if s.nRun >= s.due && s.runHooks() {
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
	for {
		t, ok := s.next()
		if !ok {
			if s.now < limit {
				s.now = limit
			}
			break
		}
		if t > limit {
			break
		}
		s.dispatch(t)
		if hooked && s.nRun >= s.due && s.runHooks() {
			break
		}
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
	cyclesPer float64 // cycles consumed per unit transferred
	nextFree  float64
	busy      float64 // total occupied cycles
	units     uint64  // total units transferred

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

	// The name: name itself when idx is negative, otherwise a format whose
	// one verb takes idx (see Init).
	name string
	idx  int
}

// Init readies r in place as an idle resource with the given throughput in
// units per cycle, clearing every counter. A DRAM partition delivering
// 768 GB/s at 1 GHz is Init("dram-%d", 5, 768) with bytes as the unit. Its
// name is format with idx for the format's one verb, "dram-5" here; a
// negative idx makes format the name itself. The name is formatted only
// when read, so initializing a machine's resources allocates nothing.
// unitsPerCycle must be positive.
func (r *Resource) Init(format string, idx int, unitsPerCycle float64) {
	*r = Resource{cyclesPer: 1 / unitsPerCycle, name: format, idx: idx}
	if unitsPerCycle <= 0 {
		panic(fmt.Sprintf("engine: resource %q: non-positive throughput %v", r.Name(), unitsPerCycle))
	}
}

// Name returns the resource's name.
func (r *Resource) Name() string {
	if r.idx < 0 {
		return r.name
	}
	return fmt.Sprintf(r.name, r.idx)
}

// toCycle discretizes a fractional completion time onto the cycle grid.
// Resource timelines accumulate in float64 so fractional occupancies from
// non-power-of-two bandwidths don't drift; the +0.5 rounds the published
// completion to the nearest cycle. This is the single place that rounding
// contract lives — every externally visible completion time funnels through
// it.
func toCycle(t float64) Cycle { return Cycle(t + 0.5) }

// Reserve books units of transfer beginning no earlier than now and returns
// the cycle at which the transfer completes. The resource is busy from
// max(now, previous completion) until the returned time.
//
// Busy-cycle accounting sums the exact duration dur rather than end-start:
// the subtraction would reintroduce rounding error at large timestamps.
func (r *Resource) Reserve(now Cycle, units uint64) Cycle {
	start := float64(now)
	if r.nextFree > start {
		start = r.nextFree
	}
	dur := float64(units) * r.cyclesPer
	end := start + dur
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
	return toCycle(end)
}

// Units returns the total units transferred through the resource.
func (r *Resource) Units() uint64 { return r.units }

// BusyThrough returns the busy cycles the resource accumulated at or before
// now, advancing the settlement watermark to now. This is the quantity
// interval utilization must be computed from: Reserve credits a transfer's
// full duration to the busy total immediately, so on a saturated resource
// the raw total runs arbitrarily far ahead of the clock.
//
// Settlement is exact whenever now has reached the end of all booked
// occupancy (the rounding contract of toCycle decides "reached", so a
// drained run settles to exactly the busy total). Mid-span, occupancy is
// credited pro-rata over the unsettled span [tailLo, nextFree): exact for a
// saturated resource (the span is fully busy — the case the clipping
// exists for) and an approximation when the span has internal idle gaps.
// The approximation preserves the three properties samplers rely on:
// BusyThrough never exceeds now, it is monotone for monotone queries, and
// successive deltas never exceed the elapsed cycles between them and sum to
// the busy total once the resource drains.
//
// A query at or before the current watermark returns the settled value
// unchanged, unless all booked occupancy is over by then: a reservation
// made in the cycle of the last settlement can end before the next
// published cycle, and the drained total must still include it. Interval
// samplers always query with monotone timestamps.
func (r *Resource) BusyThrough(now Cycle) float64 {
	t := float64(now)
	if now >= toCycle(r.nextFree) {
		// All booked occupancy is over (on the published cycle grid):
		// settle everything. Re-basing done on busy here also resyncs any
		// float drift the pro-rata branch accumulated.
		r.done = r.busy
		if t > r.mark {
			r.mark = t
		}
		r.tailLo = r.nextFree
		return r.done
	}
	if t <= r.mark {
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
// identical to the busy total over elapsed.
func (r *Resource) Utilization(elapsed Cycle) float64 {
	if elapsed == 0 {
		return 0
	}
	return r.BusyThrough(elapsed) / float64(elapsed)
}
