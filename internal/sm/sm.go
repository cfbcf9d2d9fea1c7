// Package sm models a streaming multiprocessor: an in-order issue pipeline
// with a bounded warp residency (Table 3: 64 warps per SM), a private L1
// data cache (128 KB, software-coherent, flushed at kernel boundaries), and
// CTA occupancy bookkeeping. Warp-level parallelism is modeled by letting
// every resident warp reserve issue slots on the SM's shared issue resource;
// latency hiding then emerges from the overlap of one warp's memory stall
// with other warps' issue reservations, which is exactly how the paper's
// greedy-then-round-robin scheduler behaves at steady state.
package sm

import (
	"fmt"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/cache"
	"mcmgpu/internal/config"
	"mcmgpu/internal/engine"
)

// StoreBufferSlots is the per-SM store buffer depth. Stores retire from the
// warp's perspective as soon as they enter the buffer, but a warp issuing a
// store when all slots hold in-flight stores stalls until one completes.
// This is the backpressure that keeps write-heavy warps from outrunning the
// memory system.
const StoreBufferSlots = 48

// SM is one streaming multiprocessor.
type SM struct {
	id     int
	module int

	// Store buffer occupancy and the FIFO of warps parked waiting for a
	// free slot, by the caller's warp index. waitHead indexes the FIFO
	// front; the slice is compacted when it drains so its capacity is
	// reused instead of sliding away (a [1:]-style pop would shrink the
	// usable window and force the next append to reallocate).
	storeInFlight int
	storeWaiters  []uint32
	waitHead      int

	// Issue is the SM's instruction issue bandwidth in warp instructions
	// per cycle; every resident warp reserves slots on it.
	Issue engine.Resource
	// L1 is the SM-private data cache.
	L1 cache.Cache

	maxWarps     int
	maxCTAs      int
	residentCTAs int
	residentWrps int

	launchedCTAs  uint64
	retiredCTAs   uint64
	peakResidency int
}

// Init readies s in place as idle SM id belonging to the given module,
// clearing its counters; its issue resource and L1 are part of it and are
// initialized with it. l1 is the L1's way array, cfg.L1.Lines() zeroed
// entries, and l1Sets its set-list storage, one entry per set (see
// cache.Cache.Init). The store-waiter FIFO keeps its capacity, so an SM
// record a machine reuses allocates nothing.
func (s *SM) Init(id, module int, cfg *config.Config, l1, l1Sets []uint32) {
	maxCTAs := cfg.MaxCTAsPerSM
	if maxCTAs <= 0 {
		maxCTAs = cfg.WarpsPerSM // effectively warp-limited
	}
	*s = SM{
		id:           id,
		module:       module,
		storeWaiters: s.storeWaiters[:0],
		maxWarps:     cfg.WarpsPerSM,
		maxCTAs:      maxCTAs,
	}
	s.Issue.Init("sm%d-issue", id, cfg.IssuePerSM)
	s.L1.Init("sm%d-l1", id, l1, l1Sets, cfg.L1.Ways, cfg.L1.WriteBack)
}

// ID returns the SM index.
func (s *SM) ID() int { return s.id }

// Module returns the module (GPM) the SM belongs to.
func (s *SM) Module() int { return s.module }

// CanHost reports whether a CTA of the given warp count fits now.
func (s *SM) CanHost(warpsPerCTA int) bool {
	return s.residentCTAs < s.maxCTAs && s.residentWrps+warpsPerCTA <= s.maxWarps
}

// HostCTA admits a CTA of the given warp count. It panics if the CTA does
// not fit (CanHost): the core launches only into slots its first-wave fill
// or a retiring CTA left free.
func (s *SM) HostCTA(warpsPerCTA int) {
	if !s.CanHost(warpsPerCTA) {
		panic(fmt.Sprintf("sm %d: HostCTA(%d warps) with %d/%d warps and %d/%d CTAs resident",
			s.id, warpsPerCTA, s.residentWrps, s.maxWarps, s.residentCTAs, s.maxCTAs))
	}
	s.residentCTAs++
	s.residentWrps += warpsPerCTA
	s.launchedCTAs++
	if s.residentWrps > s.peakResidency {
		s.peakResidency = s.residentWrps
	}
}

// RetireCTA releases a CTA's warp slots.
func (s *SM) RetireCTA(warpsPerCTA int) {
	if s.residentCTAs <= 0 || s.residentWrps < warpsPerCTA {
		panic(fmt.Sprintf("sm %d: RetireCTA(%d) underflow", s.id, warpsPerCTA))
	}
	s.residentCTAs--
	s.residentWrps -= warpsPerCTA
	s.retiredCTAs++
}

// ResidentWarps returns the warps currently resident.
func (s *SM) ResidentWarps() int { return s.residentWrps }

// ResidentCTAs returns the CTAs currently resident.
func (s *SM) ResidentCTAs() int { return s.residentCTAs }

// RetiredCTAs returns the number of CTAs completed on this SM.
func (s *SM) RetiredCTAs() uint64 { return s.retiredCTAs }

// FlushL1 invalidates the L1 at a kernel boundary (software coherence).
// The L1 is write-through in this model, so no dirty data moves.
func (s *SM) FlushL1() { s.L1.Flush() }

// StoreFull reports whether the store buffer has no free slot.
func (s *SM) StoreFull() bool { return s.storeInFlight >= StoreBufferSlots }

// AcquireStore occupies a store buffer slot. Callers must check StoreFull
// first; overflow panics to surface pipeline bugs.
func (s *SM) AcquireStore() {
	if s.StoreFull() {
		panic(fmt.Sprintf("sm %d: store buffer overflow", s.id))
	}
	s.storeInFlight++
}

// AwaitStore parks warp w until a store buffer slot frees.
func (s *SM) AwaitStore(w uint32) {
	s.storeWaiters = append(s.storeWaiters, w)
}

// ReleaseStore frees a store buffer slot and returns the longest-parked
// warp to resume, if any. The caller resumes it at the current simulated
// time; the warp re-acquires the freed slot.
func (s *SM) ReleaseStore() (w uint32, ok bool) {
	if s.storeInFlight <= 0 {
		panic(fmt.Sprintf("sm %d: store buffer underflow", s.id))
	}
	s.storeInFlight--
	if s.waitHead == len(s.storeWaiters) {
		return 0, false
	}
	w = s.storeWaiters[s.waitHead]
	s.waitHead++
	if s.waitHead == len(s.storeWaiters) {
		s.storeWaiters = s.storeWaiters[:0]
		s.waitHead = 0
	}
	return w, true
}

// StoresInFlight returns current store buffer occupancy.
func (s *SM) StoresInFlight() int { return s.storeInFlight }

// PendingStoreWaiters returns how many warps are parked waiting for a store
// buffer slot. At a kernel boundary this must be zero: a parked warp with no
// in-flight store to wake it is a lost-wakeup deadlock.
func (s *SM) PendingStoreWaiters() int { return len(s.storeWaiters) - s.waitHead }

// LaunchedCTAs returns the number of CTAs admitted to this SM.
func (s *SM) LaunchedCTAs() uint64 { return s.launchedCTAs }

// Audit reports structural invariant violations into r: residency within
// the configured caps, non-negative occupancy counters, store-buffer
// occupancy within its slots, and peak residency consistent with the cap.
// These hold at any instant, so the auditor runs them periodically; the
// boundary-only drain checks (residency back to zero between kernels) live
// in internal/core, which knows where kernel boundaries are.
func (s *SM) Audit(r *audit.Reporter) {
	name := fmt.Sprintf("sm%d", s.id)
	if s.residentCTAs < 0 || s.residentCTAs > s.maxCTAs {
		r.Reportf("sm-residency", name, "%d resident CTAs outside [0, %d]", s.residentCTAs, s.maxCTAs)
	}
	if s.residentWrps < 0 || s.residentWrps > s.maxWarps {
		r.Reportf("sm-residency", name, "%d resident warps outside [0, %d]", s.residentWrps, s.maxWarps)
	}
	if s.peakResidency > s.maxWarps {
		r.Reportf("sm-residency", name, "peak residency %d exceeds the %d-warp cap", s.peakResidency, s.maxWarps)
	}
	if s.storeInFlight < 0 || s.storeInFlight > StoreBufferSlots {
		r.Reportf("sm-store-buffer", name, "%d stores in flight outside [0, %d]", s.storeInFlight, StoreBufferSlots)
	}
	if s.retiredCTAs > s.launchedCTAs {
		r.Reportf("sm-residency", name, "retired %d CTAs but launched only %d", s.retiredCTAs, s.launchedCTAs)
	}
}
