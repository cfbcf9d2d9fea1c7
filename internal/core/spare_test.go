package core

import (
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

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

// emptySpares empties the spare stack, so the next New starts cold.
func emptySpares() {
	spares.Lock()
	clear(spares.stack)
	spares.stack = spares.stack[:0]
	spares.Unlock()
}

// topSpare returns the storage on top of the spare stack, which the next
// New takes, and whether there is one.
func topSpare() (storage, bool) {
	spares.Lock()
	defer spares.Unlock()
	if len(spares.stack) == 0 {
		return storage{}, false
	}
	return spares.stack[len(spares.stack)-1], true
}

// spareCount returns the number of storages on the spare stack.
func spareCount() int {
	spares.Lock()
	defer spares.Unlock()
	return len(spares.stack)
}

// coldJSON runs spec on a machine built with the spare stack emptied first,
// so nothing recycled can reach it, and returns the result's JSON.
func coldJSON(t *testing.T, cfg *config.Config, spec *workload.Spec) string {
	t.Helper()
	emptySpares()
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
// cell left on the spare stack, and requires every drained result to equal
// a cold run's field for field. The geometries differ in cache shapes, slab
// size, SM, module and partition counts and context populations, so a stale
// L2 line, a leftover event, a context still bound to its old machine or a
// counter a component record kept shows up as a different result.
// Every drained run must also hand back a slab of all-zero ways, since New
// takes it without clearing: the steps include dirty L2 lines (probe-write)
// and a footprint that fills every set of its L2 (Stream on the 32-SM
// monolithic GPU). A budget-stopped run and a recovered panic sit in the
// middle: neither may hand back its storage, so the cell after each starts
// cold. The sequence also pins which New reuses the spare: one whose slab
// is more than twice the size it needs is dropped, and one whose slab is
// too small keeps its engine, records and contexts and grows a new slab.
// Whatever New does with it, the spare leaves the stack.
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

	emptySpares()
	for i, s := range steps {
		prev, had := topSpare()
		m, err := New(s.cfg.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if reused := had && m.sim == prev.sim; reused != s.reuses {
			t.Errorf("step %d (%s on %s): reused the spare = %v, want %v", i, s.spec.Name, s.cfg.Name, reused, s.reuses)
		}
		if n := spareCount(); n != 0 {
			t.Errorf("step %d: %d storages left on the stack after New", i, n)
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
			st, ok := topSpare()
			if !ok {
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
		if s.end != drain && spareCount() != 0 {
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
// storage goes to the spare stack: nothing that reaches the storage or the
// component records in it, so a stale use panics rather than reading the
// next machine's caches or queue. The storage on the stack holds the
// machine's records, and its engine no longer references the machine.
func TestHandBackDropsMachineReferences(t *testing.T) {
	emptySpares()
	m, err := New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	sms, mods, prts := m.sms, m.mods, m.prts
	if _, err := m.RunWith(probeSpec(nil), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if m.sim != nil || m.slab != nil || m.sets != nil || m.sms != nil || m.mods != nil || m.prts != nil ||
		m.warps.slots != nil || m.ctas.slots != nil || m.loads.slots != nil || m.stores.slots != nil {
		t.Fatal("machine still references storage it handed back")
	}
	st, ok := topSpare()
	if !ok {
		t.Fatal("drained run handed back no storage")
	}
	if &st.sms[0] != &sms[0] || &st.mods[0] != &mods[0] || &st.prts[0] != &prts[0] {
		t.Fatal("the handed-back storage does not hold the machine's SM, module and partition records")
	}
	if h := reflect.ValueOf(st.sim).Elem().FieldByName("h"); !h.IsNil() {
		t.Fatal("the handed-back engine still references the machine")
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

// TestWarmCellAllocBudget pins the point of the spare stack: once a
// process has run one cell, the next cell of that geometry allocates only
// what does not scale with the SMs (the machine, NoC, page map, energy
// meter and result), not its caches, component records, contexts or event
// queue. Without the stack the same cells allocate 7.6 to 8.4 MB in 17k to
// 27k objects; with the stack but with the SM, module and partition records
// built fresh, about 1,370 objects and 106 KB.
//
// The warm cell must grow no arena, record slice, node slab or far heap:
// each keeps its capacity and backing array. A cold cell's context storage
// costs a few allocations per arena growth (see TestArenaGrowthAllocs), not
// one per context, so the cold cell's extra allocations stay a small
// fraction of the contexts it uses.
func TestWarmCellAllocBudget(t *testing.T) {
	if audit.Forced() {
		t.Skip("the forced auditor allocates its own state in every run")
	}
	const maxObjects, maxBytes = 100, 16 << 10
	spec := suiteCell(t, "NN-Conv", 0.05)
	for _, cfg := range []*config.Config{config.BaselineMCM(), config.OptimizedMCM()} {
		emptySpares()
		coldObjects, _ := cellAllocs(t, cfg, spec)
		cold, _ := topSpare()
		shape := storageShape(&cold)
		objects, bytes := cellAllocs(t, cfg, spec)
		st, _ := topSpare()
		contexts := len(st.warps.slots) + len(st.ctas.slots) + len(st.loads.slots) + len(st.stores.slots)
		t.Logf("%s: warm New+RunWith allocated %d objects, %d bytes; the cold cell %d more objects for %d contexts",
			cfg.Name, objects, bytes, coldObjects-objects, contexts)
		if objects > maxObjects || bytes > maxBytes {
			t.Errorf("%s: warm New+RunWith allocated %d objects and %d bytes, budget %d and %d",
				cfg.Name, objects, bytes, maxObjects, maxBytes)
		}
		if got := storageShape(&st); !reflect.DeepEqual(got, shape) {
			t.Errorf("%s: the warm cell grew its storage: capacities and arrays %v, were %v", cfg.Name, got, shape)
		}
		if extra := coldObjects - objects; extra*20 > uint64(contexts) {
			t.Errorf("%s: the cold cell allocated %d objects more than the warm one for %d contexts", cfg.Name, extra, contexts)
		}
	}
}

// TestConcurrentWarmCellsAllocate runs cells from two goroutines at once,
// as a two-worker sweep does, and requires the warm ones to reuse storage:
// after a warm-up that leaves two storages on the stack, 20 cells per
// goroutine allocate less in total than one storage holds. A spare that
// kept one storage would make the two goroutines drop each other's and
// rebuild them; the 100 KB of garbage per cell that SM, module and
// partition records built fresh leave would exceed the bound on its own.
// CI runs it under the race detector.
func TestConcurrentWarmCellsAllocate(t *testing.T) {
	if audit.Forced() {
		t.Skip("the forced auditor allocates its own state in every run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := config.BaselineMCM()
	spec := probeSpec(func(s *workload.Spec) { s.CTAs, s.KernelIters = 128, 1 })
	cells := func(n int, built *sync.WaitGroup) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					m, err := New(cfg.Clone())
					if built != nil {
						built.Done()
						built.Wait()
					}
					if err == nil {
						_, err = m.RunWith(spec, RunOptions{})
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	// Warm up with both machines built before either runs, so each builds
	// its own storage and both go onto the stack.
	emptySpares()
	var built sync.WaitGroup
	built.Add(2)
	cells(1, &built)
	if n := spareCount(); n != 2 {
		t.Fatalf("warm-up left %d storages on the stack, want 2", n)
	}
	st, _ := topSpare()
	limit := storageBytes(&st)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cells(20, nil)
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	t.Logf("40 warm cells on two goroutines allocated %d bytes in %d objects; one storage holds %d bytes",
		total, after.Mallocs-before.Mallocs, limit)
	if total >= limit {
		t.Errorf("40 warm cells on two goroutines allocated %d bytes, not less than the %d bytes of one storage", total, limit)
	}
}

// storageBytes returns the host bytes st holds in its slab, set list,
// records and arenas: a lower bound of one storage's size, since it leaves
// out the engine.
func storageBytes(st *storage) uint64 {
	n := 4*cap(st.slab) + 4*cap(st.sets) +
		cap(st.sms)*int(unsafe.Sizeof(st.sms[0])) +
		cap(st.mods)*int(unsafe.Sizeof(st.mods[0])) +
		cap(st.prts)*int(unsafe.Sizeof(st.prts[0])) +
		cap(st.warps.slots)*int(unsafe.Sizeof(st.warps.slots[0])) +
		cap(st.ctas.slots)*int(unsafe.Sizeof(st.ctas.slots[0])) +
		cap(st.loads.slots)*int(unsafe.Sizeof(st.loads.slots[0])) +
		cap(st.stores.slots)*int(unsafe.Sizeof(st.stores.slots[0]))
	return uint64(n)
}

// TestSpareStackBound runs eight machines at once under GOMAXPROCS 2, each
// built before any runs, and requires the stack to keep two of the eight
// storages their runs hand back: it holds at most GOMAXPROCS storages.
func TestSpareStackBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	emptySpares()
	cfg, spec := config.BaselineMCM(), probeSpec(nil)
	const workers = 8
	var built, done sync.WaitGroup
	built.Add(workers)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func() {
			defer done.Done()
			m, err := New(cfg.Clone())
			built.Done()
			built.Wait()
			if err == nil {
				_, err = m.RunWith(spec, RunOptions{})
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
	if n := spareCount(); n != 2 {
		t.Fatalf("%d machines handed back under GOMAXPROCS 2 left %d storages on the stack, want 2", workers, n)
	}
}

// TestPoppedSlotCleared requires New to clear the stack slot it took its
// storage from. The stack's array outlives the pop, so a slot left as it
// was would keep that storage alive even when its machine never runs and
// so never hands it back, as the benchmark's unrun warm-up machines do.
func TestPoppedSlotCleared(t *testing.T) {
	emptySpares()
	cfg, spec := config.BaselineMCM(), probeSpec(nil)
	mustRun(t, cfg.Clone(), spec)
	if n := spareCount(); n != 1 {
		t.Fatalf("a drained run left %d storages on the stack, want 1", n)
	}
	if _, err := New(cfg.Clone()); err != nil {
		t.Fatal(err)
	}
	spares.Lock()
	slot := spares.stack[:1][0]
	spares.Unlock()
	if !reflect.ValueOf(slot).IsZero() {
		t.Fatal("the stack slot New popped still references the storage it held")
	}
}

// TestComponentNames pins the name of every kind of component record, as
// the metrics stream and audit reports print it, on a cold machine and on
// one built on recycled records.
func TestComponentNames(t *testing.T) {
	cfg := config.MustMCMGPMs(8) // 8 modules of 32 SMs, an L1.5 each, 8 partitions
	emptySpares()
	cold, err := New(cfg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, config.OptimizedMCM(), probeSpec(nil))
	prev, _ := topSpare()
	warm, err := New(cfg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if warm.sim != prev.sim || &warm.sms[0] != &prev.sms[0] {
		t.Fatal("the second machine did not take the storage and records the drained run handed back")
	}
	for _, m := range []*Machine{cold, warm} {
		for _, c := range []struct{ got, want string }{
			{m.sms[17].Issue.Name(), "sm17-issue"},
			{m.sms[17].L1.Name(), "sm17-l1"},
			{m.mods[1].xbar.Name(), "xbar-1"},
			{m.mods[2].l15.Name(), "l15-2"},
			{m.prts[5].l2.Name(), "l2-5"},
			{m.prts[5].bank.Name(), "l2bank-5"},
			{m.prts[5].dram.Name(), "dram-5"},
		} {
			if c.got != c.want {
				t.Errorf("component name %q, want %q", c.got, c.want)
			}
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

// storageShape lists, for everything in st a cell can grow (the record
// slices, each arena's slot slab and free stack, the engine's node slab and
// far heap), its capacity and the address of its backing array.
func storageShape(st *storage) []uintptr {
	sim := reflect.ValueOf(st.sim).Elem()
	var shape []uintptr
	for _, v := range []reflect.Value{
		reflect.ValueOf(st.sms), reflect.ValueOf(st.mods), reflect.ValueOf(st.prts),
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
