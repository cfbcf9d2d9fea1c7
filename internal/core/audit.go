package core

import (
	"fmt"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/energy"
	"mcmgpu/internal/faultinject"
)

// DefaultAuditEvery is how many event dispatches pass between periodic
// invariant audits. Periodic checks are a few dozen integer sums over the
// machine's components — heavier than the budget check but still far below
// one event's dispatch cost when amortized over this interval.
const DefaultAuditEvery = 65536

// newAuditor registers every conservation law the machine's redundant
// bookkeeping supports. Each check is named; DESIGN.md documents the full
// list with the paper-level rationale for each. Checks that hold at any
// instant (both sides of the law are updated in the same event dispatch)
// also run periodically; end-to-end flow laws that are transiently false
// while operations are in flight run only at kernel boundaries, where the
// event queue has drained.
func (m *Machine) newAuditor() *audit.Auditor {
	a := &audit.Auditor{}

	// warp-drain: at a kernel boundary nothing may be left over from the
	// kernel — no resident CTAs, no in-flight memory operations, no unissued
	// CTAs in the scheduler, and an empty event queue. A leak here means a
	// lost wakeup: some warp will sleep forever in a longer run.
	a.Register("warp-drain", audit.Boundary, func(r *audit.Reporter) {
		audit.Equal(r, "warp-drain", "machine", "live CTAs", m.liveCTA, 0)
		audit.Equal(r, "warp-drain", "machine", "in-flight loads", m.loads.live(), 0)
		audit.Equal(r, "warp-drain", "machine", "in-flight stores", m.stores.live(), 0)
		audit.Equal(r, "warp-drain", "machine", "pending events", m.sim.Pending(), 0)
		if m.sched != nil {
			audit.Equal(r, "warp-drain", "machine", "unissued CTAs", m.sched.Remaining(), 0)
		}
	})

	// sm-drain: the per-SM view of the same boundary state — residency and
	// store buffers back to zero, no warp parked on a full store buffer, and
	// every launched CTA retired.
	a.Register("sm-drain", audit.Boundary, func(r *audit.Reporter) {
		for i := range m.sms {
			s := &m.sms[i]
			name := fmt.Sprintf("sm%d", s.ID())
			audit.Equal(r, "sm-drain", name, "resident CTAs", s.ResidentCTAs(), 0)
			audit.Equal(r, "sm-drain", name, "resident warps", s.ResidentWarps(), 0)
			audit.Equal(r, "sm-drain", name, "stores in flight", s.StoresInFlight(), 0)
			audit.Equal(r, "sm-drain", name, "parked store waiters", s.PendingStoreWaiters(), 0)
			audit.Equal(r, "sm-drain", name, "launched minus retired CTAs", s.LaunchedCTAs()-s.RetiredCTAs(), uint64(0))
		}
	})

	// cta-flow: across all SMs, exactly CTAs-per-kernel × kernels-completed
	// CTAs have been launched. The CTA scheduler (Section 5.2) may shuffle
	// which module runs which CTA, but it must hand out each index exactly
	// once.
	a.Register("cta-flow", audit.Boundary, func(r *audit.Reporter) {
		if m.spec == nil {
			return
		}
		var launched uint64
		for i := range m.sms {
			launched += m.sms[i].LaunchedCTAs()
		}
		audit.Equal(r, "cta-flow", "machine", "CTAs launched across SMs",
			launched, uint64(m.spec.CTAs)*uint64(m.kernelsDone))
	})

	// l1-flow: every line read the machine counts performed exactly one L1
	// access, and stores never access-count the write-through L1 (they probe
	// it; see startStore). Both sides update in the same event dispatch, so
	// this holds at any instant.
	a.Register("l1-flow", audit.Periodic|audit.Boundary, func(r *audit.Reporter) {
		var reads, writes uint64
		for i := range m.sms {
			s := &m.sms[i]
			reads += s.L1.ReadAccesses()
			writes += s.L1.WriteAccesses()
		}
		audit.Equal(r, "l1-flow", "machine", "L1 read accesses", reads, m.lineReads)
		audit.Equal(r, "l1-flow", "machine", "L1 write accesses", writes, uint64(0))
	})

	// l2-flow: reads reaching the memory-side L2 are exactly the L1 read
	// misses not filtered by a module-side L1.5 hit, and writes reaching it
	// are exactly the issued line writes — the write-through L1/L1.5 never
	// absorb a store (footnote 4 of the paper). Transiently false while
	// operations are in flight, so boundary-only.
	a.Register("l2-flow", audit.Boundary, func(r *audit.Reporter) {
		var l1Hits uint64
		for i := range m.sms {
			l1Hits += m.sms[i].L1.ReadHits()
		}
		var l15Hits, l15Writes uint64
		for i := range m.mods {
			mod := &m.mods[i]
			if mod.hasL15 {
				l15Hits += mod.l15.ReadHits()
				l15Writes += mod.l15.WriteAccesses()
			}
		}
		var l2Reads, l2Writes uint64
		for i := range m.prts {
			p := &m.prts[i]
			l2Reads += p.l2.ReadAccesses()
			l2Writes += p.l2.WriteAccesses()
		}
		audit.Equal(r, "l2-flow", "machine", "L2 read accesses",
			l2Reads, m.lineReads-l1Hits-l15Hits)
		audit.Equal(r, "l2-flow", "machine", "L2 write accesses", l2Writes, m.lineWrites)
		audit.Equal(r, "l2-flow", "machine", "L1.5 write accesses", l15Writes, uint64(0))
	})

	// l2-bank-flow: per partition, the L2 bank resource moved one line for
	// every L2 access, read or write: partitionLoad and partitionStore
	// reserve the bank and access the L2 in the same dispatch, so this holds
	// at any instant. A bank left with a previous run's timeline or units
	// breaks it.
	a.Register("l2-bank-flow", audit.Periodic|audit.Boundary, func(r *audit.Reporter) {
		for i := range m.prts {
			p := &m.prts[i]
			audit.Equal(r, "l2-bank-flow", p.bank.Name(), "bank units vs. L2 accesses x line bytes",
				p.bank.Units(), (p.l2.ReadAccesses()+p.l2.WriteAccesses())*lineBytes)
		}
	})

	// dram-flow: per partition, every L2 miss — read misses and the
	// write-allocate fills of write misses — performed exactly one DRAM read,
	// and every dirty eviction exactly one DRAM write. This is the law that
	// keeps the DRAM utilization curves honest against the cache model.
	a.Register("dram-flow", audit.Boundary, func(r *audit.Reporter) {
		for i := range m.prts {
			p := &m.prts[i]
			name := p.dram.Name()
			audit.Equal(r, "dram-flow", name, "DRAM reads vs. L2 misses",
				p.dram.Reads(), p.l2.Accesses()-p.l2.Hits())
			audit.Equal(r, "dram-flow", name, "DRAM writes vs. L2 writebacks",
				p.dram.Writes(), p.l2.Writebacks())
		}
	})

	// noc-bytes: the network's aggregate byte counter equals the sum of
	// per-link reservations (the quantity Figures 7/10/14 are computed from).
	a.Register("noc-bytes", audit.Periodic|audit.Boundary, func(r *audit.Reporter) {
		m.net.Audit(r)
	})

	// energy-bytes: the energy meter's per-domain byte counters reconcile
	// with the components that moved the bytes — chip domain vs. the GPM
	// Xbars, link domain vs. the NoC, DRAM domain vs. the partitions — and
	// the domains this machine cannot use stay zero. Section 6.2's energy
	// comparison is only as honest as this agreement.
	a.Register("energy-bytes", audit.Periodic|audit.Boundary, func(r *audit.Reporter) {
		var xbar uint64
		for i := range m.mods {
			xbar += m.mods[i].xbar.Units()
		}
		audit.Equal(r, "energy-bytes", "meter", "chip-domain bytes vs. Xbar reservations",
			m.mtr.Bytes(energy.DomainChip), xbar)
		audit.Equal(r, "energy-bytes", "meter",
			fmt.Sprintf("%s-domain bytes vs. NoC wire bytes", m.linkDomain),
			m.mtr.Bytes(m.linkDomain), m.net.TotalBytes())
		unused := energy.DomainBoard
		if m.linkDomain == energy.DomainBoard {
			unused = energy.DomainPackage
		}
		audit.Equal(r, "energy-bytes", "meter",
			fmt.Sprintf("bytes in unused %s domain", unused),
			m.mtr.Bytes(unused), uint64(0))
		audit.Equal(r, "energy-bytes", "meter", "bytes in unused system domain",
			m.mtr.Bytes(energy.DomainSystem), uint64(0))
		var dram uint64
		for i := range m.prts {
			dram += m.prts[i].dram.Bytes()
		}
		audit.Equal(r, "energy-bytes", "meter", "DRAM bytes vs. partition counters",
			m.mtr.DRAMBytes(), dram)
	})

	// dram-bytes: per partition, the device resource's reserved units equal
	// the partition's own read+write byte counters (delegated to the
	// partition).
	a.Register("dram-bytes", audit.Periodic|audit.Boundary, func(r *audit.Reporter) {
		for i := range m.prts {
			m.prts[i].dram.Audit(r)
		}
	})

	// cache-structure: structural well-formedness of every cache instance
	// (occupancy within capacity, LRU stacks well-formed, no dirty lines in
	// write-through levels, no duplicate tags) plus the VM page table's
	// consistency. O(capacity) per cache, so boundary-only.
	a.Register("cache-structure", audit.Boundary, func(r *audit.Reporter) {
		for i := range m.sms {
			m.sms[i].L1.Audit(r)
		}
		for i := range m.mods {
			mod := &m.mods[i]
			if mod.hasL15 {
				mod.l15.Audit(r)
			}
		}
		for i := range m.prts {
			m.prts[i].l2.Audit(r)
		}
		m.amap.Audit(r)
	})

	// sm-structure: per-SM residency and store-buffer bounds (delegated to
	// the SM). Cheap and instant-valid, so it also runs periodically.
	a.Register("sm-structure", audit.Periodic|audit.Boundary, func(r *audit.Reporter) {
		for i := range m.sms {
			m.sms[i].Audit(r)
		}
	})

	// clamp-guard: the engine's clamped-event count stays under the
	// documented budget (audit.ClampBudget). The engine clamps past-time
	// events to now so float slop cannot wedge a run; a count growing with
	// the event count means a causality bug is hiding behind the clamp.
	a.Register("clamp-guard", audit.Periodic|audit.Boundary, func(r *audit.Reporter) {
		clamped, events := m.sim.Clamped(), m.sim.Processed()
		if budget := audit.ClampBudget(events); clamped > budget {
			r.Reportf("clamp-guard", "engine",
				"%d clamped events after %d dispatches exceeds the budget of %d",
				clamped, events, budget)
		}
	})

	return a
}

// runAudit evaluates the given audit phase and converts any violations into
// the machine's structured termination error.
func (m *Machine) runAudit(phase audit.Phase) error {
	if vs := m.aud.Run(phase); len(vs) > 0 {
		return m.simError(KindInvariant, vs)
	}
	return nil
}

// periodicAudit is the engine's audit hook: it runs the checks that stay
// valid mid-kernel.
func (m *Machine) periodicAudit() error {
	return m.runAudit(audit.Periodic)
}

// corruptCounter applies a CorruptCounter fault plan: a one-count (or
// one-byte) perturbation of the targeted statistic, invisible to every
// lifecycle guard and engineered to break exactly one audited invariant.
func (m *Machine) corruptCounter(target string) {
	switch target {
	case faultinject.TargetLineReads:
		m.lineReads++
	case faultinject.TargetLineWrites:
		m.lineWrites++
	case faultinject.TargetEnergyLink:
		m.mtr.AddBytes(m.linkDomain, 1)
	case faultinject.TargetEnergyDRAM:
		m.mtr.AddDRAM(1)
	case faultinject.TargetInFlight:
		m.loads.get() // a load context that is never put back
	case faultinject.TargetClamp:
		m.sim.After(0, 0, evClamp)
	case faultinject.TargetL2Bank:
		m.prts[0].bank.Reserve(m.sim.Now(), 1)
	}
}
