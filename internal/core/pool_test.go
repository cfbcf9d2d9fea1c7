package core

import (
	"testing"
	"unsafe"

	"mcmgpu/internal/config"
	"mcmgpu/internal/workload"
)

// TestPooledContextsResetAcrossRelaunch drives a multi-wave, store-heavy
// workload (CTAs far exceed residency, so every warp/CTA context is
// recycled many times, and store-buffer backpressure parks warps) and then
// checks that every context sitting on a free list of the storage the run
// handed back was returned in the cleared state, machine pointer included:
// a stale field leaking across a CTA relaunch, or into the next machine,
// would be invisible in aggregate results until it corrupted a run.
func TestPooledContextsResetAcrossRelaunch(t *testing.T) {
	spec := probeSpec(func(s *workload.Spec) {
		s.CTAs = 1024
		s.WriteFraction = 0.5
		s.KernelIters = 2
	})
	spare.Store(nil) // the lists below then hold this machine's contexts only
	m, err := New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunWith(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemOps != spec.TotalMemOps() {
		t.Fatalf("MemOps = %d, want %d", res.MemOps, spec.TotalMemOps())
	}
	st := spare.Load()
	if st == nil {
		t.Fatal("drained run handed back no storage")
	}

	var nWarp, nCTA, nLoad, nStore int
	for _, wc := range st.freeWarps {
		nWarp++
		if wc.m != nil {
			t.Fatalf("pooled warpCtx keeps its machine pointer")
		}
		if wc.cta != nil || wc.pending != 0 || wc.lineIdx != 0 || wc.loadDone != 0 {
			t.Fatalf("pooled warpCtx retains state: %+v", wc)
		}
		if wc.st != (workload.Stream{}) || wc.op != (workload.Op{}) {
			t.Fatalf("pooled warpCtx retains stream/op state")
		}
	}
	for cc := st.freeCTAs; cc != nil; cc = cc.next {
		nCTA++
		if cc.sm != nil || cc.live != 0 || cc.idx != 0 {
			t.Fatalf("pooled ctaCtx retains state: %+v", cc)
		}
	}
	for lc := st.freeLoads; lc != nil; lc = lc.next {
		nLoad++
		if lc.m != nil {
			t.Fatalf("pooled loadCtx keeps its machine pointer")
		}
		if lc.wc != nil || lc.pt != nil || lc.line != 0 || lc.g != 0 {
			t.Fatalf("pooled loadCtx retains state: %+v", lc)
		}
	}
	for sc := st.freeStores; sc != nil; sc = sc.next {
		nStore++
		if sc.m != nil {
			t.Fatalf("pooled storeCtx keeps its machine pointer")
		}
		if sc.sm != nil || sc.pt != nil || sc.line != 0 {
			t.Fatalf("pooled storeCtx retains state: %+v", sc)
		}
	}
	// A drained run must have returned every context: the pools hold the
	// steady-state in-flight population, bounded by machine residency, not
	// by total work.
	if nWarp == 0 || nCTA == 0 || nLoad == 0 || nStore == 0 {
		t.Fatalf("empty pools after run: warps=%d ctas=%d loads=%d stores=%d",
			nWarp, nCTA, nLoad, nStore)
	}
	maxResident := m.cfg.TotalSMs() * m.cfg.WarpsPerSM
	if nWarp > maxResident {
		t.Fatalf("warp pool grew to %d, residency bound is %d", nWarp, maxResident)
	}

	// Pooled reuse must not perturb results: a second machine on the same
	// spec, built on the storage the first handed back (its lists in a
	// different order), matches exactly.
	m2, err := New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.RunWith(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != res2.Cycles || res.DRAMBytes != res2.DRAMBytes ||
		res.InterModuleBytes != res2.InterModuleBytes {
		t.Fatalf("pooled relaunch nondeterministic: %+v vs %+v", res, res2)
	}
}

// TestLoadPathSteadyStateAllocs pins the tentpole contract: once the pools
// and the event queue have warmed, dispatching a load through the full
// remote path (L1 miss, xbar, ring, memory-side L2, DRAM, response) incurs
// zero heap allocations per event.
func TestLoadPathSteadyStateAllocs(t *testing.T) {
	m, err := New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	cc := &ctaCtx{sm: m.sms[0], live: 1}
	wc := m.getWarp()
	wc.cta = cc

	// Issue one load and drain. pending starts at 2 so loadComplete never
	// reaches zero and never schedules the warp's next step (the warp has
	// no stream here). Large line stride defeats the L1 so every load
	// walks the full event path.
	n := uint64(0)
	issue := func() {
		n++
		wc.pending = 2
		m.startLoad(wc, (n*4099)%(1<<22))
		m.sim.Run()
	}
	for i := 0; i < 200; i++ {
		issue() // warm pools, queue backing array, resource state
	}
	allocs := testing.AllocsPerRun(200, issue)
	if allocs != 0 {
		t.Fatalf("steady-state load path allocated %v objects per load, want 0", allocs)
	}
}

// TestClampedEventsSurfaced checks the clamp counter is plumbed into the
// Result, and that a normal run does not clamp at all — the memory path
// schedules only at or after the current cycle by construction.
func TestClampedEventsSurfaced(t *testing.T) {
	res := mustRun(t, config.BaselineMCM(), probeSpec(nil))
	if res.ClampedEvents != 0 {
		t.Fatalf("baseline run clamped %d events, want 0", res.ClampedEvents)
	}
}

// TestWarpContextSize holds the warp context to three host cache lines and
// the op it embeds to 48 bytes, with the fields mem and loadComplete touch
// in the first 64 bytes. A high-parallelism cell keeps 8,192 warps
// resident, so a field that spills either struct into another host line
// costs every cell; this makes that change fail loudly.
func TestWarpContextSize(t *testing.T) {
	var wc warpCtx
	if n := unsafe.Sizeof(wc); n > 192 {
		t.Errorf("warpCtx is %d bytes, budget 192", n)
	}
	if n := unsafe.Sizeof(wc.op); n > 48 {
		t.Errorf("workload.Op is %d bytes, budget 48", n)
	}
	if end := unsafe.Offsetof(wc.op) + unsafe.Sizeof(wc.op); end > 64 {
		t.Errorf("warpCtx's memory-op fields end at byte %d, past the first 64", end)
	}
}
