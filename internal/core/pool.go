package core

import (
	"fmt"
	"runtime"
	"sync"

	"mcmgpu/internal/config"
	"mcmgpu/internal/engine"
	"mcmgpu/internal/sm"
)

// storage is the part of a machine whose size grows with its geometry: one
// slab every cache's way array is cut from, a second every cache's
// filled-set list is cut from, the event engine (its node slab, far heap and
// calendar), the records of the machine's SMs, modules and partitions, and
// the four context arenas below. The records hold every component that
// comes one per SM, module or partition (issue resources, caches, xbars, L2
// banks, DRAM devices and their counters), and New re-initializes each one
// in place, clearing its counters, so nothing can leak from one cell into
// the next. What New still builds fresh is small and does not scale with
// the SMs: the NoC, the page map, the energy meter and the machine itself.
type storage struct {
	slab []uint32 // way entries; all zero whenever no machine holds it
	sets []uint32 // set lists; their contents never matter
	sim  *engine.Sim

	sms  []sm.SM
	mods []module
	prts []partition

	warps  arena[warpCtx]
	ctas   arena[ctaCtx]
	loads  arena[loadCtx]
	stores arena[storeCtx]
}

// spares is a stack of the storages of machines whose runs drained: a
// drained run pushes its storage and New pops one, so each goroutine
// running cells at once finds a storage of its own. Every multi-cell
// process builds cells through New and RunWith, so all of them reuse it
// without a caller changing, and it only holds storage a machine clears
// before use, so it never changes a result. It holds at most
// runtime.GOMAXPROCS(0) storages, the most machines that run at once; a
// hand-back beyond that drops its storage. New allocates a storage only
// when the stack is empty, so a long-lived mcmserve keeps the storages of
// its busiest moment and no more. A sync.Pool would hold any number per P
// and drop them all within two collections (see DESIGN.md).
var spares struct {
	sync.Mutex
	stack []storage
}

// takeStorage returns storage for a machine built from cfg whose caches
// need lines way entries and sets set-list entries. It pops the top spare
// and takes it as it is, since handBack left its slab all zero, growing a
// new slab, set list or record slice when the spare's is too small. It
// drops a spare whose slab is more than twice that size: a config with huge
// caches must not pin its slab in a long-lived process. With no usable
// spare it allocates fresh storage.
func takeStorage(cfg *config.Config, lines, sets int) storage {
	st, ok := popSpare()
	if !ok || cap(st.slab) > 2*lines {
		st = storage{slab: make([]uint32, lines), sets: make([]uint32, sets), sim: engine.New()}
	}
	if cap(st.slab) < lines {
		st.slab = make([]uint32, lines)
	}
	if cap(st.sets) < sets {
		st.sets = make([]uint32, sets)
	}
	st.slab, st.sets = st.slab[:lines], st.sets[:sets]
	st.sms = records(st.sms, cfg.TotalSMs())
	st.mods = records(st.mods, cfg.Modules)
	st.prts = records(st.prts, cfg.TotalPartitions())
	return st
}

// records returns n records on rs's array when it has room for them, else
// on a new one. It clears the records past n, whose caches could still
// point into a slab the storage has since replaced.
func records[T any](rs []T, n int) []T {
	if cap(rs) < n {
		return make([]T, n)
	}
	clear(rs[n:cap(rs)])
	return rs[:n]
}

// popSpare takes the top storage off the spare stack. It clears the slot it
// emptied: otherwise the stack's array would keep the storage alive after
// its machine dropped it, as a machine that never runs does.
func popSpare() (storage, bool) {
	spares.Lock()
	defer spares.Unlock()
	n := len(spares.stack) - 1
	if n < 0 {
		return storage{}, false
	}
	st := spares.stack[n]
	spares.stack[n] = storage{}
	spares.stack = spares.stack[:n]
	return st, true
}

// handBack gives a drained machine's storage to the spare stack. Every
// context is back in its arena by then, and the engine is reset, which
// drops its handler, so the storage references nothing of this machine.
// The last kernel boundary flushed the L1s and L1.5s; flushing the L2s too
// clears exactly the sets the run filled, so the slab goes back all zero
// without a pass over the untouched rest. The machine drops its references
// to the storage, and with it to every component record: a stale use
// panics instead of reading another machine's state.
func (m *Machine) handBack() {
	for i := range m.prts {
		m.prts[i].l2.Flush()
	}
	m.sim.Reset()
	spares.Lock()
	if len(spares.stack) < runtime.GOMAXPROCS(0) {
		spares.stack = append(spares.stack, m.storage)
	}
	spares.Unlock()
	m.storage = storage{}
}

// arena holds one kind of event context in a slab addressed by uint32
// index, with a stack of the free indices. The simulator fires millions of
// events per run, so an event carries its context's index (see
// Machine.Dispatch) and no context type holds a pointer: scheduling
// allocates nothing, and the collector never scans an arena. A free slot
// is all zero: put clears it, so nothing leaks from one context into the
// next that takes its slot. The simulation is single threaded, so arenas
// need no locking.
//
// Warps and CTAs live in sized arenas: runKernel sizes them from the
// kernel's launch bound before the first wave, so they never grow
// mid-kernel and no context moves. Loads and stores live in growable
// arenas, whose slots move when the slab grows; a caller holds no pointer
// into one across a get.
type arena[T any] struct {
	slots []T
	free  []uint32
}

// size gives an arena whose every slot is free exactly n slots, reusing its
// storage when that has room for n. Slots past n stay zero. The free
// stack's capacity is never below the slab's (see get).
func (a *arena[T]) size(n int) {
	if cap(a.slots) < n {
		a.slots, a.free = make([]T, n), make([]uint32, n)
	}
	a.slots, a.free = a.slots[:n], a.free[:n]
	for i := range a.free {
		a.free[i] = uint32(n - 1 - i) // slot 0 on top
	}
}

// take pops a free slot. A sized arena that runs out was sized from a
// wrong bound, so take panics rather than grow it under live contexts.
func (a *arena[T]) take() uint32 {
	n := len(a.free) - 1
	if n < 0 {
		panic(fmt.Sprintf("core: context arena overrun: all %d slots live", len(a.slots)))
	}
	i := a.free[n]
	a.free = a.free[:n]
	return i
}

// get pops a free slot of a growable arena, adding one when none is free.
// The slab grows by append, which doubles it, and the free stack is
// reallocated to the slab's new capacity at the same time (it is empty
// then), so a growth costs two allocations however many contexts it adds,
// and put never allocates.
func (a *arena[T]) get() uint32 {
	if len(a.free) == 0 {
		var zero T
		a.slots = append(a.slots, zero)
		if cap(a.free) < cap(a.slots) {
			a.free = make([]uint32, 0, cap(a.slots))
		}
		a.free = append(a.free, uint32(len(a.slots)-1))
	}
	return a.take()
}

// put clears slot i and frees it.
func (a *arena[T]) put(i uint32) {
	var zero T
	a.slots[i] = zero
	a.free = append(a.free, i)
}

// live returns the number of slots taken and not yet put back: for loads
// and stores, the operations in flight.
func (a *arena[T]) live() int { return len(a.slots) - len(a.free) }
