package core

import (
	"sync/atomic"

	"mcmgpu/internal/engine"
)

// storage is the part of a machine whose size grows with its geometry: one
// slab every cache's way array is cut from, a second every cache's
// filled-set list is cut from, the event engine (its node slab, far heap and
// calendar), and the context free lists below. Only raw storage is recycled.
// The component structs (SMs, resources, cache headers, NoC, page map,
// counters) are built fresh by every New, so no counter can leak from one
// cell into the next.
type storage struct {
	slab []uint32 // way entries; all zero whenever no machine holds it
	sets []uint32 // set lists; their contents never matter
	sim  *engine.Sim

	freeWarps  []*warpCtx
	freeCTAs   *ctaCtx
	freeLoads  *loadCtx
	freeStores *storeCtx
}

// spare is the storage of the last machine whose run drained, waiting for
// the next New. Every multi-cell process (the runner's workers, mcmserve,
// sweep, the benchmark) builds cells through New and RunWith, so all of
// them reuse it without a caller changing. Like a pool, it only ever holds
// storage a machine clears before use, so it never changes a result.
//
// It is one atomic pointer, not a sync.Pool: a Pool's per-P slots and
// victim generation let a long-lived mcmserve keep several storages at
// once, and a worker goroutine that changed P missed its own spare.
var spare atomic.Pointer[storage]

// takeStorage returns storage for a machine whose caches need lines way
// entries and sets set-list entries. It takes the spare as it is, since
// handBack left its slab all zero, growing a new slab or set list when the
// spare's is too small. It drops a spare whose slab is more than twice that
// size: a config with huge caches must not pin its slab in a long-lived
// process. With no usable spare it allocates fresh storage.
func takeStorage(lines, sets int) storage {
	st := spare.Swap(nil)
	if st == nil || cap(st.slab) > 2*lines {
		return storage{slab: make([]uint32, lines), sets: make([]uint32, sets), sim: engine.New()}
	}
	if cap(st.slab) < lines {
		st.slab = make([]uint32, lines)
	}
	if cap(st.sets) < sets {
		st.sets = make([]uint32, sets)
	}
	st.slab, st.sets = st.slab[:lines], st.sets[:sets]
	return *st
}

// handBack gives a drained machine's storage to the spare. Every context is
// back on its free list by then, and the engine is reset, so the spare
// references nothing of this machine. The last kernel boundary flushed the
// L1s and L1.5s; flushing the L2s too clears exactly the sets the run
// filled, so the slab goes back all zero without a pass over the untouched
// rest. The machine drops its references to the storage and to the
// components built on it: a stale use panics instead of reading another
// machine's state.
func (m *Machine) handBack() {
	for _, pt := range m.prts {
		pt.l2.Flush()
	}
	st := m.storage
	st.sim.Reset()
	spare.Store(&st)
	m.storage = storage{}
	m.sms, m.mods, m.prts = nil, nil, nil
}

// Free lists for the event-path context structs. The simulator fires
// millions of events per run; allocating a context (or a closure) per event
// made the GC a first-order cost of every experiment. Instead each context
// kind is recycled through a free list in the machine's storage: get* pops a
// recycled struct (allocating only while the pool grows toward the
// steady-state in-flight population), put* clears the struct's references
// and pushes it back. Warps sit on a stack of pointers, since a kernel
// launch pops thousands at once and a stack's pops do not wait on each
// other's loads; the other kinds use an intrusive singly linked list. The
// simulation is single threaded, so the lists need no locking.
//
// put* fully zeroes payload fields rather than relying on the next get* to
// overwrite them: it drops references the GC would otherwise keep alive
// through the pool, and it is what the cross-relaunch state-leak test in
// pool_test.go pins down. That includes the machine pointer, which get*
// sets: a list handed to the next machine then needs no walk to rebind it.

// getWarp returns a warp context with m set and all other state cleared.
func (m *Machine) getWarp() *warpCtx {
	n := len(m.freeWarps)
	if n == 0 {
		return &warpCtx{m: m}
	}
	wc := m.freeWarps[n-1]
	m.freeWarps = m.freeWarps[:n-1]
	wc.m = m
	return wc
}

func (m *Machine) putWarp(wc *warpCtx) {
	*wc = warpCtx{}
	m.freeWarps = append(m.freeWarps, wc)
}

func (m *Machine) getCTA() *ctaCtx {
	cc := m.freeCTAs
	if cc == nil {
		return &ctaCtx{}
	}
	m.freeCTAs = cc.next
	cc.next = nil
	return cc
}

func (m *Machine) putCTA(cc *ctaCtx) {
	cc.idx = 0
	cc.sm = nil
	cc.live = 0
	cc.next = m.freeCTAs
	m.freeCTAs = cc
}

func (m *Machine) getLoad() *loadCtx {
	m.liveLoads++
	lc := m.freeLoads
	if lc == nil {
		return &loadCtx{m: m}
	}
	m.freeLoads = lc.next
	lc.next = nil
	lc.m = m
	return lc
}

func (m *Machine) putLoad(lc *loadCtx) {
	m.liveLoads--
	lc.m = nil
	lc.wc = nil
	lc.pt = nil
	lc.line = 0
	lc.g = 0
	lc.next = m.freeLoads
	m.freeLoads = lc
}

func (m *Machine) getStore() *storeCtx {
	m.liveStores++
	sc := m.freeStores
	if sc == nil {
		return &storeCtx{m: m}
	}
	m.freeStores = sc.next
	sc.next = nil
	sc.m = m
	return sc
}

func (m *Machine) putStore(sc *storeCtx) {
	m.liveStores--
	sc.m = nil
	sc.sm = nil
	sc.pt = nil
	sc.line = 0
	sc.next = m.freeStores
	m.freeStores = sc
}
