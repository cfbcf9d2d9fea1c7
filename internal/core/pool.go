package core

import (
	"fmt"
	"runtime"
	"sync"

	"mcmgpu/internal/cache"
	"mcmgpu/internal/config"
	"mcmgpu/internal/engine"
	"mcmgpu/internal/sm"
)

// storage is the part of a machine whose size grows with its geometry: a
// slab every cache's way array is cut from, in one of two entry widths, a
// second slab every cache's filled-set list is cut from, the event engine
// (its node slab, far heap and calendar), the records of the machine's SMs,
// modules and partitions, the warp slab and the three context arenas
// below. The records hold every component that comes one per SM, module or
// partition (issue resources, caches, xbars, L2 banks, DRAM devices and
// their counters), and a run re-initializes each one in place before its
// first kernel (see assemble), clearing its counters, so nothing can leak
// from one cell into the next. What New builds fresh is small and does not
// scale with the SMs: the NoC, the page map, the energy meter and the
// machine itself.
type storage struct {
	// slab holds the way entries: a 16-bit slab and a 32-bit one, each all
	// zero whenever no machine holds it. A run uses one of them, which is
	// then the only one non-empty; the other keeps its array for a later
	// run of its width.
	slab cache.Lines
	sets []uint32 // set lists; their contents never matter
	sim  *engine.Sim

	sms  []sm.SM
	mods []module
	prts []partition

	warps  []warpCtx
	ctas   arena[ctaCtx]
	loads  arena[loadCtx]
	stores arena[storeCtx]
}

// spares is a stack of the storages of machines whose runs drained: a
// drained run pushes its storage and the next run pops one once its spec
// is valid, so each goroutine running cells at once finds a storage of its
// own, and a machine that never runs, or whose spec is refused, leaves the
// stack as it was. Every multi-cell process builds cells through New and
// RunWith, so all of them reuse it without a caller changing, and it only
// holds storage a machine clears before use, so it never changes a
// result. It holds at most runtime.GOMAXPROCS(0) storages, the most
// machines that run at once; a hand-back beyond that drops its storage. A
// run allocates a storage only when the stack is empty, so a long-lived
// mcmserve keeps the storages of its busiest moment and no more. A
// sync.Pool would hold any number per P and drop them all within two
// collections (see DESIGN.md).
var spares struct {
	sync.Mutex
	stack []storage
}

// takeStorage returns storage for a machine built from cfg whose caches
// need lines way entries, 16-bit ones when narrow and 32-bit ones
// otherwise, and sets set-list entries. It pops the top spare and takes it
// as it is, since handBack left both its slabs all zero, growing a new
// slab, set list or record slice when the spare's is too small. No slab
// more than twice lines entries stays: a config with huge caches must not
// pin its slab in a long-lived process. The rule applies to each slab on
// its own. When the run's slab breaks it, the spare is dropped whole, as
// its records are sized for the same huge config; when the other slab
// does, only that slab goes. With no usable spare it allocates fresh
// storage.
func takeStorage(cfg *config.Config, lines, sets int, narrow bool) storage {
	st, ok := popSpare()
	used := cap(st.slab.Wide)
	if narrow {
		used = cap(st.slab.Narrow)
	}
	if !ok || used > 2*lines {
		st = storage{sets: make([]uint32, sets), sim: engine.New()}
	}
	st.slab = cache.Lines{Narrow: ways(st.slab.Narrow, lines, narrow), Wide: ways(st.slab.Wide, lines, !narrow)}
	if cap(st.sets) < sets {
		st.sets = make([]uint32, sets)
	}
	st.sets = st.sets[:sets]
	st.sms = records(st.sms, cfg.TotalSMs())
	st.mods = records(st.mods, cfg.Modules)
	st.prts = records(st.prts, cfg.TotalPartitions())
	return st
}

// ways returns a storage's slab of one width as a run takes it: n entries
// on its array when the run uses it, or on a new one when that is too
// small, and otherwise no entries, with its array kept for a later run of
// that width unless it holds more than twice n.
func ways[E uint16 | uint32](slab []E, n int, use bool) []E {
	switch {
	case use && cap(slab) < n:
		return make([]E, n)
	case use:
		return slab[:n]
	case cap(slab) > 2*n:
		return nil
	}
	return slab[:0]
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
// its machine dropped it, as a machine whose run a budget or a panic
// stopped does.
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
// warp context is clear and every other context back in its arena by then,
// and the engine is reset, which drops its handler, so the storage
// references nothing of this machine.
// The last kernel boundary flushed the L1s and L1.5s; flushing the L2s too
// clears exactly the sets the run filled, so the slab it used goes back all
// zero without a pass over the untouched rest, and the other was never
// touched. The machine drops its references to the storage, and with it to
// every component record: a stale use panics instead of reading another
// machine's state.
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

// slab returns n warp contexts on ws's array when it has room for them,
// else on a new one. The contexts are all zero: a warp clears its context
// when it retires, and a storage is handed back only once every warp has.
func slab(ws []warpCtx, n int) []warpCtx {
	if cap(ws) < n {
		return make([]warpCtx, n)
	}
	return ws[:n]
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
// CTAs live in a sized arena: runKernel sizes it from the kernel's launch
// bound before the first wave, so it never grows mid-kernel and no context
// moves. Warps need no arena: each CTA slot owns a fixed block of the warp
// slab (see ctaCtx). Loads and stores live in growable arenas, whose
// slots move when the slab grows; a caller holds no pointer into one
// across a get.
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
