package core

import (
	"mcmgpu/internal/config"
	"mcmgpu/internal/energy"
	"mcmgpu/internal/engine"
)

// lineBytes is the machine-wide cache line size (Table 3: 128 B).
const lineBytes = config.LineBytes

// The memory path is staged as discrete events at each variable-latency
// boundary (arrival at the home partition, departure of the response) so
// that every bandwidth reservation is made at — or at a small constant
// offset from — current simulated time. Reserving a shared resource at a
// far-future timestamp computed synchronously (e.g. booking the response
// link transfer while still at the request's issue time) would insert the
// intervening latency as dead time in the resource's FIFO timeline and
// starve later-issued, earlier-arriving traffic.
//
// Each in-flight operation's state rides in a context (loadCtx, storeCtx)
// in the machine's load or store arena, and its events carry the context's
// index; the stages below are the kinds Machine.Dispatch routes to them. A
// stage may read the context freely but must put it back exactly once, on
// the path that completes the operation, and must not touch it afterwards.
// Line addresses fit 32 bits (see workload.WarpStream).

// loadCtx carries one in-flight cache-line load from the point startLoad
// schedules its arrival event until the data-ready time is delivered to the
// issuing warp.
type loadCtx struct {
	warp uint32 // issuing warp; receives loadComplete
	pt   uint32 // the line's home partition
	line uint32
	g    uint32 // requesting module
}

// storeCtx carries one in-flight cache-line store from startStore to the
// release of its store-buffer slot.
type storeCtx struct {
	sm   uint32 // issuing SM; owns the occupied store-buffer slot
	pt   uint32 // the line's home partition
	line uint32
}

// startLoad begins one cache-line load for warp w, which runs on SM si.
// loadComplete is invoked exactly once for it with the data-ready cycle;
// for cache hits and local accesses it is invoked synchronously with a
// (possibly future) timestamp, for remote accesses it is invoked from the
// response event.
func (m *Machine) startLoad(w, si uint32, line uint64) {
	cfg := m.cfg
	now := m.sim.Now()
	m.lineReads++
	s := &m.sms[si]

	// SM-private L1.
	if s.L1.Access(line, false).Hit {
		m.loadComplete(w, now+engine.Cycle(cfg.L1.HitLatency))
		return
	}
	t := now + engine.Cycle(cfg.L1.HitLatency) // tag lookup paid on miss too

	// Module fabric toward the memory system or the module edge.
	g := s.Module()
	mod := &m.mods[g]
	t = mod.xbar.Reserve(t, lineBytes) + engine.Cycle(cfg.XbarLatency)
	m.mtr.AddBytes(energy.DomainChip, lineBytes)

	// Home lookup; first touch binds the page here.
	p := m.amap.Partition(line, g)
	pt := &m.prts[p]
	remote := pt.module != g
	if remote {
		m.remoteAcc++
	} else {
		m.localAcc++
	}

	// Module-side L1.5 (Section 5.1): caches remote traffic (or everything,
	// under the allocate-all ablation policy). Allocation happens at miss
	// time, which models MSHR merging: concurrent accesses to an in-flight
	// line hit without issuing duplicate traffic.
	if mod.hasL15 && (remote || cfg.L15Alloc == config.AllocAll) {
		if mod.l15.Access(line, false).Hit {
			m.loadComplete(w, t+engine.Cycle(cfg.L15.HitLatency))
			return
		}
		t += L15MissPenalty
	}

	if remote {
		// Request header crosses the ring to the home module.
		hops := uint64(m.net.Hops(g, pt.module))
		t = m.net.Send(t, g, pt.module, uint64(cfg.Link.ReqHeaderBytes))
		m.mtr.AddBytes(m.linkDomain, hops*uint64(cfg.Link.ReqHeaderBytes))
	}
	l := m.loads.get()
	m.loads.slots[l] = loadCtx{warp: w, pt: uint32(p), line: uint32(line), g: uint32(g)}
	m.sim.At(t, l, evLoadArrive)
}

// partitionLoad runs at load l's home partition when the request arrives:
// memory-side L2 lookup, DRAM fill on miss, and the response leg.
func (m *Machine) partitionLoad(l uint32) {
	cfg := m.cfg
	lc := m.loads.slots[l]
	pt := &m.prts[lc.pt]
	now := m.sim.Now()
	t := pt.bank.Reserve(now, lineBytes) + engine.Cycle(cfg.L2.HitLatency)
	l2 := pt.l2.Access(m.amap.CacheAddr(uint64(lc.line)), false)
	if !l2.Hit {
		// The dirty victim departs as the fill arrives: both transactions
		// are booked at the device arrival time.
		if l2.NeedsWriteback {
			pt.dram.Write(now, lineBytes)
			m.mtr.AddDRAM(lineBytes)
		}
		t = pt.dram.Read(t, lineBytes)
		m.mtr.AddDRAM(lineBytes)
	}
	if pt.module == int(lc.g) {
		m.loads.put(l)
		m.loadComplete(lc.warp, t)
		return
	}
	// Response departs home when the data is ready.
	m.sim.At(t, l, evLoadRespond)
}

// respond runs at load l's home module when the data is ready: it books the
// response transfer back across the ring and wakes the warp at arrival.
func (m *Machine) respond(l uint32) {
	cfg := m.cfg
	lc := m.loads.slots[l]
	home, g := m.prts[lc.pt].module, int(lc.g)
	resp := uint64(lineBytes + cfg.Link.RespHeaderBytes)
	hops := uint64(m.net.Hops(home, g))
	arrive := m.net.Send(m.sim.Now(), home, g, resp)
	m.mtr.AddBytes(m.linkDomain, hops*resp)
	m.loads.put(l)
	m.loadComplete(lc.warp, arrive)
}

// startStore begins one cache-line store from SM si. The caller has
// already acquired a store-buffer slot; the slot is released when the line
// lands in the home L2. The L1 and L1.5 are write-through (footnote 4 of
// the paper: required for software coherence): stores update them in place
// when present, never allocate, and always travel to the home partition.
func (m *Machine) startStore(si uint32, line uint64) {
	cfg := m.cfg
	now := m.sim.Now()
	m.lineWrites++
	s := &m.sms[si]

	s.L1.Probe(line, true)
	t := now + engine.Cycle(cfg.L1.HitLatency)

	g := s.Module()
	mod := &m.mods[g]
	t = mod.xbar.Reserve(t, lineBytes) + engine.Cycle(cfg.XbarLatency)
	m.mtr.AddBytes(energy.DomainChip, lineBytes)

	p := m.amap.Partition(line, g)
	pt := &m.prts[p]
	remote := pt.module != g
	if remote {
		m.remoteAcc++
	} else {
		m.localAcc++
	}

	if mod.hasL15 && (remote || cfg.L15Alloc == config.AllocAll) {
		mod.l15.Probe(line, true)
	}

	if remote {
		payload := uint64(lineBytes + cfg.Link.ReqHeaderBytes)
		hops := uint64(m.net.Hops(g, pt.module))
		t = m.net.Send(t, g, pt.module, payload)
		m.mtr.AddBytes(m.linkDomain, hops*payload)
	}
	st := m.stores.get()
	m.stores.slots[st] = storeCtx{sm: si, pt: uint32(p), line: uint32(line)}
	m.sim.At(t, st, evStoreArrive)
}

// partitionStore absorbs store st at the home partition's write-back L2
// (write-allocate: a miss fills the line from DRAM and may evict a dirty
// victim) and then releases the issuing SM's store-buffer slot.
func (m *Machine) partitionStore(st uint32) {
	cfg := m.cfg
	sc := &m.stores.slots[st]
	pt := &m.prts[sc.pt]
	now := m.sim.Now()
	end := pt.bank.Reserve(now, lineBytes) + engine.Cycle(cfg.L2.HitLatency)
	l2 := pt.l2.Access(m.amap.CacheAddr(uint64(sc.line)), true)
	if !l2.Hit {
		pt.dram.Read(now, lineBytes) // allocate fill
		m.mtr.AddDRAM(lineBytes)
		if l2.NeedsWriteback {
			pt.dram.Write(now, lineBytes)
			m.mtr.AddDRAM(lineBytes)
		}
	}
	m.sim.At(end, st, evStoreRelease)
}

// release frees the store-buffer slot store st occupied and resumes a warp
// parked on the full buffer, if any.
func (m *Machine) release(st uint32) {
	si := m.stores.slots[st].sm
	m.stores.put(st)
	if w, ok := m.sms[si].ReleaseStore(); ok {
		m.memWrite(w, si)
	}
}
