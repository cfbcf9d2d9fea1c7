package core

import (
	"reflect"
	"testing"
	"unsafe"

	"mcmgpu/internal/config"
	"mcmgpu/internal/workload"
)

// checkArenaDrained fails unless every slot of a is zero and every index
// sits on its free list exactly once: the state a drained run leaves.
func checkArenaDrained[T comparable](t *testing.T, name string, a *arena[T]) {
	t.Helper()
	var zero T
	for i, c := range a.slots {
		if c != zero {
			t.Fatalf("%s slot %d retains state: %+v", name, i, c)
		}
	}
	onList := make([]bool, len(a.slots))
	for _, i := range a.free {
		if int(i) >= len(onList) || onList[i] {
			t.Fatalf("%s index %d is out of range or on the free list twice", name, i)
		}
		onList[i] = true
	}
	if len(a.free) != len(a.slots) {
		t.Fatalf("%s arena: %d of %d indices on the free list", name, len(a.free), len(a.slots))
	}
}

// TestPooledContextsResetAcrossRelaunch drives a multi-wave, store-heavy
// workload (CTAs far exceed residency, so every warp and CTA slot is reused
// many times, and store-buffer backpressure parks warps) and then checks
// the arenas of the storage the run handed back: every slot zero and every
// index on its free list exactly once. A stale field leaking across a CTA
// relaunch, or into the next machine, would be invisible in aggregate
// results until it corrupted a run.
func TestPooledContextsResetAcrossRelaunch(t *testing.T) {
	spec := probeSpec(func(s *workload.Spec) {
		s.CTAs = 1024
		s.WriteFraction = 0.5
		s.KernelIters = 2
	})
	emptySpares() // the arenas below then hold this machine's contexts only
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
	st, ok := topSpare()
	if !ok {
		t.Fatal("drained run handed back no storage")
	}
	checkArenaDrained(t, "warp", &st.warps)
	checkArenaDrained(t, "CTA", &st.ctas)
	checkArenaDrained(t, "load", &st.loads)
	checkArenaDrained(t, "store", &st.stores)
	if len(st.loads.slots) == 0 || len(st.stores.slots) == 0 {
		t.Fatalf("the run used %d load and %d store slots", len(st.loads.slots), len(st.stores.slots))
	}
	if want := launchBound(config.BaselineMCM(), spec); len(st.ctas.slots) != want || len(st.warps.slots) != want*spec.WarpsPerCTA {
		t.Fatalf("arenas hold %d CTA and %d warp slots, want the launch bound: %d and %d",
			len(st.ctas.slots), len(st.warps.slots), want, want*spec.WarpsPerCTA)
	}

	// Reuse must not perturb results: a second machine on the same spec,
	// built on the storage the first handed back (its free lists in a
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

// TestResidentWarpsWithinLaunchBound checks after every event that the
// resident warps, and the live warp contexts, never exceed the warp arena
// runKernel sized from the launch bound, and that the bound is reached, so
// it is tight. The cases cover a distributed scheduler whose modules run
// dry in the middle of the first wave, several waves on the distributed
// and tiled schedulers, and SMs that hold one warp each (the shape of the
// fuzz corpus's one-warp-sm seed).
func TestResidentWarpsWithinLaunchBound(t *testing.T) {
	oneWarp := config.BaselineMCM()
	oneWarp.Name, oneWarp.WarpsPerSM = "one-warp-sm", 1
	cases := []struct {
		name string
		cfg  *config.Config
		spec *workload.Spec
	}{
		{"distributed, dry mid-wave", config.OptimizedMCM(), probeSpec(func(s *workload.Spec) { s.CTAs = 1021 })},
		{"distributed, several waves", config.OptimizedMCM(), probeSpec(func(s *workload.Spec) { s.CTAs, s.KernelIters = 9001, 1 })},
		{"tiled, several waves", config.TiledRegionMCM(), suiteCell(t, "GEMM2D-4K", 0.25)},
		{"one warp per SM", oneWarp, probeSpec(func(s *workload.Spec) { s.CTAs, s.WarpsPerCTA = 300, 1 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg.Clone())
			if err != nil {
				t.Fatal(err)
			}
			bound := launchBound(tc.cfg, tc.spec) * tc.spec.WarpsPerCTA
			peak := 0
			m.sim.AddHook(1, func() error {
				resident := m.liveCTA * tc.spec.WarpsPerCTA
				live := len(m.warps.slots) - len(m.warps.free)
				if len(m.warps.slots) != bound || resident > bound || live > resident {
					t.Fatalf("at cycle %d: %d resident warps, %d live warp contexts, %d warp slots; launch bound %d",
						m.sim.Now(), resident, live, len(m.warps.slots), bound)
				}
				peak = max(peak, resident)
				return nil
			})
			if _, err := m.RunWith(tc.spec, RunOptions{}); err != nil {
				t.Fatal(err)
			}
			if peak != bound {
				t.Fatalf("peak residency %d warps, launch bound %d", peak, bound)
			}
		})
	}
}

// TestContextsHoldNoPointers walks the four context types field by field.
// None may hold a pointer, slice, map, string, interface or func: the
// collector would then have to scan the arenas again.
func TestContextsHoldNoPointers(t *testing.T) {
	for _, c := range []any{warpCtx{}, ctaCtx{}, loadCtx{}, storeCtx{}} {
		typ := reflect.TypeOf(c)
		if path := pointerField(typ); path != "" {
			t.Errorf("%s holds a reference at %s", typ, path)
		}
	}
}

// pointerField returns the path to the first field of t that holds a
// reference the collector traces, or "" when t holds none.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerField(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
	case reflect.Array:
		if p := pointerField(t.Elem()); p != "" {
			return "[i]" + p
		}
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Func, reflect.Chan:
		return " (" + t.String() + ")"
	}
	return ""
}

// TestLoadPathSteadyStateAllocs pins the tentpole contract: once the arenas
// and the event queue have warmed, dispatching a load through the full
// remote path (L1 miss, xbar, ring, memory-side L2, DRAM, response) incurs
// zero heap allocations per event.
func TestLoadPathSteadyStateAllocs(t *testing.T) {
	m, err := New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	m.warps.size(1)
	w := m.warps.take() // a warp on SM 0

	// Issue one load and drain. pending starts at 2 so loadComplete never
	// reaches zero and never schedules the warp's next step (the warp has
	// no stream here). Large line stride defeats the L1 so every load
	// walks the full event path.
	n := uint64(0)
	issue := func() {
		n++
		m.warps.slots[w].pending = 2
		m.startLoad(w, (n*4099)%(1<<22))
		m.sim.Run()
	}
	for i := 0; i < 200; i++ {
		issue() // warm the load arena, queue backing array, resource state
	}
	allocs := testing.AllocsPerRun(200, issue)
	if allocs != 0 {
		t.Fatalf("steady-state load path allocated %v objects per load, want 0", allocs)
	}
}

// TestArenaGrowthAllocs pins what a growable arena costs: filling an empty
// one allocates twice per growth of its slab (the slab and its free stack),
// not once per context, and a refill after every slot is put back
// allocates nothing.
func TestArenaGrowthAllocs(t *testing.T) {
	const n = 5000
	var a arena[loadCtx]
	growths := 0
	fill := func() {
		a = arena[loadCtx]{}
		growths = 0
		for i := 0; i < n; i++ {
			c := cap(a.slots)
			a.get()
			if cap(a.slots) != c {
				growths++
			}
		}
	}
	if got := testing.AllocsPerRun(5, fill); got != float64(2*growths) {
		t.Fatalf("filling %d slots allocated %v times over %d growths, want %d", n, got, growths, 2*growths)
	}
	if growths > 30 {
		t.Fatalf("%d slots took %d growths", n, growths)
	}
	refill := func() {
		for i := range a.slots {
			a.put(uint32(i))
		}
		for range a.slots {
			a.get()
		}
	}
	if got := testing.AllocsPerRun(5, refill); got != 0 {
		t.Fatalf("refilling a grown arena allocated %v times, want 0", got)
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
