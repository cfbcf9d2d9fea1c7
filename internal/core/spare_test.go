package core

import (
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/config"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/workload"
)

// suiteCell returns the named application scaled by scale.
func suiteCell(t testing.TB, name string, scale float64) *workload.Spec {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Scaled(scale)
}

// coldJSON runs spec on a machine built with the spare emptied first, so
// nothing recycled can reach it, and returns the result's JSON.
func coldJSON(t *testing.T, cfg *config.Config, spec *workload.Spec) string {
	t.Helper()
	spare.Store(nil)
	return resultJSON(t, mustRun(t, cfg.Clone(), spec))
}

func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSpareLeaksNothingBetweenCells runs a sequence of cells that alternate
// one geometry with four others, each on whatever storage the previous
// cell left, and requires every drained result to equal a cold run's field
// for field. The geometries differ in cache shapes, slab size and context
// populations, so a stale L2 line, a leftover event, a context still bound
// to its old machine or an unreset counter shows up as a different result.
// Every drained run must also hand back a slab of all-zero ways, since New
// takes it without clearing: the steps include dirty L2 lines (probe-write)
// and a footprint that fills every set of its L2 (Stream on the 32-SM
// monolithic GPU). A budget-stopped run and a recovered panic sit in the
// middle: neither may hand back its storage, so the cell after each starts
// cold. The sequence also pins which New reuses the spare: one whose slab
// is more than twice the size it needs is dropped, and one whose slab is
// too small keeps its engine and contexts and grows a new slab.
func TestSpareLeaksNothingBetweenCells(t *testing.T) {
	a := config.BaselineMCM()
	b, c, d, e := config.OptimizedMCM(), config.MustMonolithic(32), config.MultiGPUBaseline(), config.TiledRegionMCM()
	write := probeSpec(func(s *workload.Spec) { s.Name, s.WriteFraction = "probe-write", 0.4 })
	stream, conv := suiteCell(t, "Stream", 0.05), suiteCell(t, "NN-Conv", 0.05)
	const (
		drain = iota
		stop
		crash
	)
	steps := []struct {
		cfg    *config.Config
		spec   *workload.Spec
		end    int
		reuses bool // New takes the storage the step before left
	}{
		{a, write, drain, false}, // the spare starts empty
		{b, conv, drain, true},
		{a, stream, drain, true},
		{c, write, drain, false}, // a's slab is 8x what c needs: dropped
		{c, stream, drain, true},
		{a, conv, drain, true}, // c's slab is too small: new slab, same engine and contexts
		{b, write, stop, true},
		{d, stream, drain, false}, // the stopped run kept its storage
		{a, write, drain, true},
		{e, conv, crash, true},
		{e, stream, drain, false}, // so did the panicked one
		{a, conv, drain, true},
	}
	want := make([]string, len(steps))
	for i, s := range steps {
		if s.end == drain {
			want[i] = coldJSON(t, s.cfg, s.spec)
		}
	}
	if filled, sets := l2SetsFilled(t, c, stream); filled != sets {
		t.Fatalf("Stream fills %d of the %d L2 sets on %s; the step must fill them all", filled, sets, c.Name)
	}

	spare.Store(nil)
	for i, s := range steps {
		prev := spare.Load()
		m, err := New(s.cfg.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if reused := prev != nil && m.sim == prev.sim; reused != s.reuses {
			t.Errorf("step %d (%s on %s): reused the spare = %v, want %v", i, s.spec.Name, s.cfg.Name, reused, s.reuses)
		}
		switch s.end {
		case drain:
			res, err := m.RunWith(s.spec, RunOptions{})
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if got := resultJSON(t, res); got != want[i] {
				t.Errorf("step %d (%s on %s) on recycled storage differs from a cold run:\n got %s\nwant %s",
					i, s.spec.Name, s.cfg.Name, got, want[i])
			}
			st := spare.Load()
			if st == nil {
				t.Fatalf("step %d: drained run handed back no storage", i)
			}
			for j, e := range st.slab[:cap(st.slab)] {
				if e != 0 {
					t.Fatalf("step %d (%s on %s): handed-back slab holds way entry %#x at %d", i, s.spec.Name, s.cfg.Name, e, j)
				}
			}
		case stop:
			_, err := m.RunWith(s.spec, RunOptions{MaxEvents: 10_000, CheckEvery: 64})
			wantSimError(t, err, KindMaxEvents)
		case crash:
			func() {
				defer func() {
					if _, ok := recover().(faultinject.Injected); !ok {
						t.Fatalf("step %d: run did not panic with the injected fault", i)
					}
				}()
				m.RunWith(s.spec, RunOptions{
					Fault:      faultinject.Plan{Kind: faultinject.Panic, AtEvent: 5_000},
					CheckEvery: 64,
				})
			}()
		}
		if s.end != drain && spare.Load() != nil {
			t.Errorf("step %d: a run that did not drain handed back its storage", i)
		}
	}
}

// l2SetsFilled runs spec's first kernel on a machine for cfg, which keeps
// its storage, and counts the L2 sets holding a line against the total.
// The L2 ways follow the L1.5 ways in the slab (see New).
func l2SetsFilled(t *testing.T, cfg *config.Config, spec *workload.Spec) (filled, sets int) {
	t.Helper()
	m, err := New(cfg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	m.spec = spec
	m.setupPlacement()
	if err := m.runKernel(); err != nil {
		t.Fatal(err)
	}
	off := 0
	if cfg.L15.Enabled() {
		off = cfg.Modules * cfg.L15.Lines()
	}
	l2 := m.slab[off : off+cfg.TotalPartitions()*cfg.L2.Lines()]
	for i := 0; i < len(l2); i += cfg.L2.Ways {
		if l2[i] != 0 {
			filled++
		}
	}
	return filled, len(l2) / cfg.L2.Ways
}

// TestHandBackDropsMachineReferences pins what a machine keeps after its
// storage goes to the spare: nothing that reaches the storage, so a stale
// use panics rather than reading the next machine's caches or queue.
func TestHandBackDropsMachineReferences(t *testing.T) {
	m, err := New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunWith(probeSpec(nil), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if m.sim != nil || m.slab != nil || m.sets != nil || m.sms != nil || m.mods != nil || m.prts != nil ||
		m.warps.slots != nil || m.ctas.slots != nil || m.loads.slots != nil || m.stores.slots != nil {
		t.Fatal("machine still references storage it handed back")
	}
}

// TestConcurrentCellsMatchSequential runs one mixed-geometry cell list from
// four goroutines at once, as the runner's workers and mcmserve do, so the
// spare passes between goroutines and geometries, and requires every result
// to equal a sequential run's. CI runs it under the race detector with
// -count=10.
func TestConcurrentCellsMatchSequential(t *testing.T) {
	cfgs := []*config.Config{
		config.BaselineMCM(), config.OptimizedMCM(), config.MustMonolithic(32),
		config.MultiGPUBaseline(), config.TiledRegionMCM(),
	}
	specs := []*workload.Spec{
		probeSpec(nil),
		probeSpec(func(s *workload.Spec) { s.Name, s.WriteFraction, s.CTAs = "probe-write", 0.4, 128 }),
	}
	type cell struct {
		cfg  *config.Config
		spec *workload.Spec
	}
	var cells []cell
	for round := 0; round < 2; round++ {
		for _, cfg := range cfgs {
			for _, spec := range specs {
				cells = append(cells, cell{cfg, spec})
			}
		}
	}
	want := make([]string, len(cells))
	for i, c := range cells {
		want[i] = coldJSON(t, c.cfg, c.spec)
	}

	got := make([]*Result, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells); i = int(next.Add(1) - 1) {
				m, err := New(cells[i].cfg.Clone())
				if err == nil {
					got[i], err = m.RunWith(cells[i].spec, RunOptions{})
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("cell %d (%s on %s): %v", i, c.spec.Name, c.cfg.Name, errs[i])
		}
		if g := resultJSON(t, got[i]); g != want[i] {
			t.Errorf("cell %d (%s on %s) run concurrently differs from the sequential run:\n got %s\nwant %s",
				i, c.spec.Name, c.cfg.Name, g, want[i])
		}
	}
}

// TestWarmCellAllocBudget pins the point of the spare: once a process has
// run one cell, the next cell of that geometry allocates only its component
// structs (SMs, resources, cache headers, NoC, page map, result), not its
// caches, contexts or event queue. Without the spare the same cells
// allocate 7.6 to 8.4 MB in 17k to 27k objects.
//
// The warm cell must grow no arena and no node slab or far heap: each keeps
// its capacity and backing array. A cold cell's context storage costs a few
// allocations per arena growth (see TestArenaGrowthAllocs), not one per
// context, so the cold cell's extra allocations stay a small fraction of
// the contexts it uses.
func TestWarmCellAllocBudget(t *testing.T) {
	if audit.Forced() {
		t.Skip("the forced auditor allocates its own state in every run")
	}
	const maxObjects, maxBytes = 2000, 256 << 10
	spec := suiteCell(t, "NN-Conv", 0.05)
	for _, cfg := range []*config.Config{config.BaselineMCM(), config.OptimizedMCM()} {
		spare.Store(nil)
		coldObjects, _ := cellAllocs(t, cfg, spec)
		shape := storageShape(spare.Load())
		objects, bytes := cellAllocs(t, cfg, spec)
		st := spare.Load()
		contexts := len(st.warps.slots) + len(st.ctas.slots) + len(st.loads.slots) + len(st.stores.slots)
		t.Logf("%s: warm New+RunWith allocated %d objects, %d bytes; the cold cell %d more objects for %d contexts",
			cfg.Name, objects, bytes, coldObjects-objects, contexts)
		if objects > maxObjects || bytes > maxBytes {
			t.Errorf("%s: warm New+RunWith allocated %d objects and %d bytes, budget %d and %d",
				cfg.Name, objects, bytes, maxObjects, maxBytes)
		}
		if got := storageShape(st); !reflect.DeepEqual(got, shape) {
			t.Errorf("%s: the warm cell grew its storage: capacities and arrays %v, were %v", cfg.Name, got, shape)
		}
		if extra := coldObjects - objects; extra*20 > uint64(contexts) {
			t.Errorf("%s: the cold cell allocated %d objects more than the warm one for %d contexts", cfg.Name, extra, contexts)
		}
	}
}

// cellAllocs runs spec on a new machine for cfg and returns the objects and
// bytes New and RunWith allocated.
func cellAllocs(t *testing.T, cfg *config.Config, spec *workload.Spec) (objects, bytes uint64) {
	t.Helper()
	c := cfg.Clone()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunWith(spec, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// storageShape lists, for everything in st a cell can grow (each arena's
// slot slab and free stack, the engine's node slab and far heap), its
// capacity and the address of its backing array.
func storageShape(st *storage) []uintptr {
	sim := reflect.ValueOf(st.sim).Elem()
	var shape []uintptr
	for _, v := range []reflect.Value{
		reflect.ValueOf(st.warps.slots), reflect.ValueOf(st.warps.free),
		reflect.ValueOf(st.ctas.slots), reflect.ValueOf(st.ctas.free),
		reflect.ValueOf(st.loads.slots), reflect.ValueOf(st.loads.free),
		reflect.ValueOf(st.stores.slots), reflect.ValueOf(st.stores.free),
		sim.FieldByName("nodes"), sim.FieldByName("far"),
	} {
		shape = append(shape, uintptr(v.Cap()), v.Pointer())
	}
	return shape
}
