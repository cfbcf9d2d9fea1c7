package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/cache"
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

// emptySpares empties the spare stack, so the next run starts cold.
func emptySpares() {
	spares.Lock()
	clear(spares.stack)
	spares.stack = spares.stack[:0]
	spares.Unlock()
}

// topSpare returns the storage on top of the spare stack, which the next
// run takes, and whether there is one.
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

// assembled returns a new machine for cfg holding its storage and records
// as RunWith builds them for spec before the first kernel, way width
// included. run runs it.
func assembled(t testing.TB, cfg *config.Config, spec *workload.Spec) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.assemble(narrowWays(cfg, spec))
	return m
}

// wideSpec returns a probe kernel whose footprint is past the bound of
// 16-bit way entries on every preset, so its runs take 32-bit ones: with
// 32 CTAs over 2^23 lines, half of them stream through lines above 2^22,
// whose L1 tags need more than 14 bits.
func wideSpec() *workload.Spec {
	return probeSpec(func(s *workload.Spec) { s.Name, s.CTAs, s.FootprintLines = "probe-wide", 32, 1<<23 })
}

// slabBytes returns the host bytes of l's arrays, both widths.
func slabBytes(l cache.Lines) uint64 { return uint64(2*cap(l.Narrow) + 4*cap(l.Wide)) }

// nonZero returns the index of the first non-zero entry in s's whole
// array, or -1.
func nonZero[E uint16 | uint32](s []E) int {
	for i, e := range s[:cap(s)] {
		if e != 0 {
			return i
		}
	}
	return -1
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
// cold. The sequence also pins which run reuses the spare: one whose slab
// is more than twice the size it needs is dropped, and one whose slab is
// too small keeps its engine, records and contexts and grows a new slab.
// Whatever the run does with it, the spare leaves the stack, and New alone
// leaves the stack as it was. Runs with 32-bit way entries (probe-wide) sit
// between runs with 16-bit ones, so a storage switches width, and both of
// its slabs must be all zero after every drained step.
func TestSpareLeaksNothingBetweenCells(t *testing.T) {
	a := config.BaselineMCM()
	b, c, d, e := config.OptimizedMCM(), config.MustMonolithic(32), config.MultiGPUBaseline(), config.TiledRegionMCM()
	write := probeSpec(func(s *workload.Spec) { s.Name, s.WriteFraction = "probe-write", 0.4 })
	stream, conv, wide := suiteCell(t, "Stream", 0.05), suiteCell(t, "NN-Conv", 0.05), wideSpec()
	const (
		drain = iota
		stop
		crash
	)
	steps := []struct {
		cfg    *config.Config
		spec   *workload.Spec
		end    int
		reuses bool // the run takes the storage the step before left
	}{
		{a, write, drain, false}, // the spare starts empty
		{b, conv, drain, true},
		{a, wide, drain, true},   // a new 32-bit slab; the same engine and contexts
		{a, stream, drain, true}, // back on the 16-bit slab
		{c, write, drain, false}, // a's slab is 8x what c needs: dropped
		{c, stream, drain, true},
		{c, wide, drain, true},
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
		if top, ok := topSpare(); ok != had || top.sim != prev.sim || spareCount() > 1 {
			t.Errorf("step %d: New changed the spare stack", i)
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
			if !ok || spareCount() != 1 {
				t.Fatalf("step %d: drained run left %d storages on the stack, want its own", i, spareCount())
			}
			if j, k := nonZero(st.slab.Narrow), nonZero(st.slab.Wide); j >= 0 || k >= 0 {
				t.Fatalf("step %d (%s on %s): handed-back slabs hold a way entry at %d of the 16-bit one and %d of the 32-bit one",
					i, s.spec.Name, s.cfg.Name, j, k)
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
		// The run took the storage its machine keeps, or, once it drained,
		// the one it handed back.
		used := m.storage
		if s.end == drain {
			used, _ = topSpare()
		} else if spareCount() != 0 {
			t.Errorf("step %d: a run that did not drain handed back its storage", i)
		}
		if reused := had && used.sim == prev.sim; reused != s.reuses {
			t.Errorf("step %d (%s on %s): reused the spare = %v, want %v", i, s.spec.Name, s.cfg.Name, reused, s.reuses)
		}
	}
}

// l2SetsFilled runs spec's first kernel on a machine for cfg, which keeps
// its storage, and counts the L2 sets holding a line against the total.
// The L2 ways follow the L1.5 ways in the slab (see assemble).
func l2SetsFilled(t *testing.T, cfg *config.Config, spec *workload.Spec) (filled, sets int) {
	t.Helper()
	m := assembled(t, cfg.Clone(), spec)
	m.spec = spec
	m.setupPlacement()
	if err := m.runKernel(); err != nil {
		t.Fatal(err)
	}
	off := 0
	if cfg.L15.Enabled() {
		off = cfg.Modules * cfg.L15.Lines()
	}
	sets = cfg.TotalPartitions() * cfg.L2.Lines() / cfg.L2.Ways
	for s := range sets {
		i := off + s*cfg.L2.Ways
		if len(m.slab.Narrow) != 0 && m.slab.Narrow[i] != 0 || len(m.slab.Wide) != 0 && m.slab.Wide[i] != 0 {
			filled++
		}
	}
	return filled, sets
}

// TestHandBackDropsMachineReferences pins what a machine keeps after its
// storage goes to the spare stack: nothing that reaches the storage or the
// component records in it, so a stale use panics rather than reading the
// next machine's caches or queue. The storage on the stack holds the
// machine's records, and its engine no longer references the machine.
func TestHandBackDropsMachineReferences(t *testing.T) {
	emptySpares()
	m := assembled(t, config.BaselineMCM(), probeSpec(nil))
	sms, mods, prts := m.sms, m.mods, m.prts
	if _, err := m.run(probeSpec(nil), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if m.sim != nil || m.slab.Narrow != nil || m.slab.Wide != nil || m.sets != nil || m.sms != nil || m.mods != nil || m.prts != nil ||
		m.warps != nil || m.ctas.slots != nil || m.loads.slots != nil || m.stores.slots != nil {
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

// TestConcurrentCellsMatchSequential runs one cell list mixing machine
// geometries and CTA shapes from four goroutines at once, as the runner's
// workers and mcmserve do, so the spare passes between goroutines,
// geometries and CTA shapes, and requires every result to equal a
// sequential run's. The specs have 4, 16 and 24 warps per CTA, the suite's
// shapes, so a recycled warp slab is re-blocked from one shape to another,
// and one is an irregular, store-heavy kernel whose 8-line ops draw
// diverged lanes as they issue, across store-buffer parks. One takes
// 32-bit way entries and the rest 16-bit ones, so a storage also switches
// width between cells. CI runs it under the race detector with -count=10.
func TestConcurrentCellsMatchSequential(t *testing.T) {
	cfgs := []*config.Config{
		config.BaselineMCM(), config.OptimizedMCM(), config.MustMonolithic(32),
		config.MultiGPUBaseline(), config.TiledRegionMCM(),
	}
	specs := []*workload.Spec{
		probeSpec(nil),
		probeSpec(func(s *workload.Spec) { s.Name, s.WriteFraction, s.CTAs = "probe-write", 0.4, 128 }),
		probeSpec(func(s *workload.Spec) { s.Name, s.CTAs, s.WarpsPerCTA, s.MemOpsPerWarp = "probe-16w", 96, 16, 8 }),
		probeSpec(func(s *workload.Spec) { s.Name, s.CTAs, s.WarpsPerCTA, s.MemOpsPerWarp = "probe-24w", 64, 24, 8 }),
		probeSpec(func(s *workload.Spec) {
			s.Name, s.Pattern, s.CTAs, s.WarpsPerCTA, s.MemOpsPerWarp = "probe-8line", workload.PatIrregular, 32, 16, 8
			s.LinesPerOp, s.WriteFraction, s.ReuseProb = 8, 0.7, 0.3
			s.RandomFraction, s.ScatterLines, s.SharedLines = 0.5, 1024, 256
		}),
		wideSpec(),
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

// The most a warm cell, New plus RunWith of NN-Conv at scale 0.05 on the
// storage the previous cell handed back, may allocate: the objects measured
// on each preset (11 on mcm-baseline; 23 on mcm-optimized, 27 under -race)
// plus at most half again, and 16 KB.
const (
	baselineWarmObjects  = 16
	optimizedWarmObjects = 34
	warmCellBytes        = 16 << 10
)

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
	spec := suiteCell(t, "NN-Conv", 0.05)
	for _, c := range []struct {
		cfg        *config.Config
		maxObjects uint64
	}{{config.BaselineMCM(), baselineWarmObjects}, {config.OptimizedMCM(), optimizedWarmObjects}} {
		cfg := c.cfg
		emptySpares()
		coldObjects, _ := cellAllocs(t, cfg, spec)
		cold, _ := topSpare()
		shape := storageShape(&cold)
		objects, bytes := cellAllocs(t, cfg, spec)
		st, _ := topSpare()
		contexts := len(st.warps) + len(st.ctas.slots) + len(st.loads.slots) + len(st.stores.slots)
		t.Logf("%s: warm New+RunWith allocated %d objects, %d bytes; the cold cell %d more objects for %d contexts",
			cfg.Name, objects, bytes, coldObjects-objects, contexts)
		if objects > c.maxObjects || bytes > warmCellBytes {
			t.Errorf("%s: warm New+RunWith allocated %d objects and %d bytes, budget %d and %d",
				cfg.Name, objects, bytes, c.maxObjects, warmCellBytes)
		}
		if got := storageShape(&st); !reflect.DeepEqual(got, shape) {
			t.Errorf("%s: the warm cell grew its storage: capacities and arrays %v, were %v", cfg.Name, got, shape)
		}
		if extra := coldObjects - objects; extra*20 > uint64(contexts) {
			t.Errorf("%s: the cold cell allocated %d objects more than the warm one for %d contexts", cfg.Name, extra, contexts)
		}
	}
}

// TestUnrunMachinesLeaveTheSpare builds three machines after a warm cell
// and never runs them, as the benchmark's set-up does before a timed cell.
// They must leave the spare stack alone: the next cell takes the storage
// the warm cell handed back, the same slab array, and stays within the
// warm cell's budget.
func TestUnrunMachinesLeaveTheSpare(t *testing.T) {
	if audit.Forced() {
		t.Skip("the forced auditor allocates its own state in every run")
	}
	cfg, spec := config.BaselineMCM(), suiteCell(t, "NN-Conv", 0.05)
	emptySpares()
	cellAllocs(t, cfg, spec)
	cellAllocs(t, cfg, spec)
	prev, _ := topSpare()
	for i := 0; i < 3; i++ {
		if _, err := New(cfg.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	objects, bytes := cellAllocs(t, cfg, spec)
	if st, _ := topSpare(); unsafe.SliceData(st.slab.Narrow) != unsafe.SliceData(prev.slab.Narrow) {
		t.Fatal("the cell after three unrun machines did not run on the storage the warm cell handed back")
	}
	if objects > baselineWarmObjects || bytes > warmCellBytes {
		t.Errorf("the cell after three unrun machines allocated %d objects and %d bytes, budget %d and %d",
			objects, bytes, baselineWarmObjects, warmCellBytes)
	}
}

// TestRefusedRunLeavesTheSpare requires a RunWith whose spec Validate
// refuses to return that error and leave the spare stack as it was, the
// same storage on top: a machine takes storage only for a run.
func TestRefusedRunLeavesTheSpare(t *testing.T) {
	cfg := config.BaselineMCM()
	emptySpares()
	mustRun(t, cfg.Clone(), probeSpec(nil))
	prev, _ := topSpare()
	bad := probeSpec(nil)
	bad.CTAs = 0
	m, err := New(cfg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want := bad.Validate()
	if _, err := m.RunWith(bad, RunOptions{}); err == nil || err.Error() != want.Error() {
		t.Fatalf("RunWith of a spec with no CTAs returned %v, want %v", err, want)
	}
	if top, ok := topSpare(); !ok || spareCount() != 1 || top.sim != prev.sim ||
		unsafe.SliceData(top.slab.Narrow) != unsafe.SliceData(prev.slab.Narrow) {
		t.Fatal("a refused run changed the spare stack")
	}
	if m.sim != nil {
		t.Fatal("a refused run left its machine holding storage")
	}
}

// runCell runs spec on a new machine built from cfg.
func runCell(cfg *config.Config, spec *workload.Spec) error {
	m, err := New(cfg.Clone())
	if err == nil {
		_, err = m.RunWith(spec, RunOptions{})
	}
	return err
}

// warmCells runs n cells of spec on cfg on each of two goroutines at once,
// as a two-worker sweep does, after a warm-up that leaves two storages on
// the stack, and returns the bytes they allocated and a storage's size.
// each, when not nil, is called after every cell.
func warmCells(t *testing.T, cfg *config.Config, spec *workload.Spec, n int, each func()) (total uint64, st storage) {
	// Two machines that both hold their storage before either hands one
	// back leave two storages on the stack.
	emptySpares()
	a, b := assembled(t, cfg.Clone(), spec), assembled(t, cfg.Clone(), spec)
	for _, m := range []*Machine{a, b} {
		if _, err := m.run(spec, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := spareCount(); n != 2 {
		t.Fatalf("warm-up left %d storages on the stack, want 2", n)
	}
	st, _ = topSpare()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := runCell(cfg, spec); err != nil {
					t.Error(err)
					return
				}
				if each != nil {
					each()
				}
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, st
}

// TestConcurrentWarmCellsAllocate runs cells from two goroutines at once
// and requires the warm ones to reuse storage: 20 cells per goroutine
// allocate less in total than one storage holds. A spare that kept one
// storage would make the two goroutines drop each other's and rebuild
// them; the 100 KB of garbage per cell that SM, module and partition
// records built fresh leave would exceed the bound on its own. CI runs it
// under the race detector.
func TestConcurrentWarmCellsAllocate(t *testing.T) {
	if audit.Forced() {
		t.Skip("the forced auditor allocates its own state in every run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	spec := probeSpec(func(s *workload.Spec) { s.CTAs, s.KernelIters = 128, 1 })
	total, st := warmCells(t, config.BaselineMCM(), spec, 20, nil)
	limit := storageBytes(&st)
	t.Logf("40 warm cells on two goroutines allocated %d bytes; one storage holds %d bytes", total, limit)
	if total >= limit {
		t.Errorf("40 warm cells on two goroutines allocated %d bytes, not less than the %d bytes of one storage", total, limit)
	}
}

// TestRefusedRunsBesideWarmCellsAllocate runs 20 warm cells on each of two
// goroutines while a third calls RunWith with a spec Validate refuses, on
// a new machine after every cell either finishes, so a refused run keeps
// landing while a storage sits on the stack. All of them together must
// allocate less than one storage's slabs: a refused run that took a spare
// would make the next warm cell build a storage of its own. CI runs it
// under the race detector.
func TestRefusedRunsBesideWarmCellsAllocate(t *testing.T) {
	if audit.Forced() {
		t.Skip("the forced auditor allocates its own state in every run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := config.BaselineMCM()
	spec := probeSpec(func(s *workload.Spec) { s.CTAs, s.KernelIters = 128, 1 })
	bad := *spec
	bad.CTAs = 0
	// One slot per warm cell, so a finished cell never waits; refused is
	// buffered so the refusing goroutine exits even when a failed warm-up
	// ends the test before the count is read.
	finished, refused := make(chan struct{}, 40), make(chan int, 1)
	go func() {
		n := 0
		for range finished {
			if err := runCell(cfg, &bad); err == nil {
				t.Error("RunWith accepted a spec with no CTAs")
			}
			n++
		}
		refused <- n
	}()
	var total uint64
	var st storage
	func() {
		defer close(finished)
		total, st = warmCells(t, cfg, spec, 20, func() { finished <- struct{}{} })
	}()
	n := <-refused
	limit := slabBytes(st.slab) + 4*uint64(cap(st.sets))
	t.Logf("40 warm cells beside %d refused runs allocated %d bytes; one storage's slabs hold %d bytes", n, total, limit)
	if total >= limit {
		t.Errorf("40 warm cells beside %d refused runs allocated %d bytes, not less than the %d bytes of one storage's slabs",
			n, total, limit)
	}
}

// storageBytes returns the host bytes st holds in its slab, set list,
// records and arenas: a lower bound of one storage's size, since it leaves
// out the engine.
func storageBytes(st *storage) uint64 {
	n := int(slabBytes(st.slab)) + 4*cap(st.sets) +
		cap(st.sms)*int(unsafe.Sizeof(st.sms[0])) +
		cap(st.mods)*int(unsafe.Sizeof(st.mods[0])) +
		cap(st.prts)*int(unsafe.Sizeof(st.prts[0])) +
		cap(st.warps)*int(unsafe.Sizeof(st.warps[0])) +
		cap(st.ctas.slots)*int(unsafe.Sizeof(st.ctas.slots[0])) +
		cap(st.loads.slots)*int(unsafe.Sizeof(st.loads.slots[0])) +
		cap(st.stores.slots)*int(unsafe.Sizeof(st.stores.slots[0]))
	return uint64(n)
}

// TestSpareStackBound runs eight machines at once under GOMAXPROCS 2, each
// holding its storage before any runs, and requires the stack to keep two
// of the eight storages their runs hand back: it holds at most GOMAXPROCS
// storages.
func TestSpareStackBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	emptySpares()
	cfg, spec := config.BaselineMCM(), probeSpec(nil)
	ms := make([]*Machine, 8)
	for i := range ms {
		ms[i] = assembled(t, cfg.Clone(), spec)
	}
	var done sync.WaitGroup
	for _, m := range ms {
		done.Add(1)
		go func() {
			defer done.Done()
			if _, err := m.run(spec, RunOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
	if n := spareCount(); n != 2 {
		t.Fatalf("%d machines handed back under GOMAXPROCS 2 left %d storages on the stack, want 2", len(ms), n)
	}
}

// TestPoppedSlotCleared requires a run to clear the stack slot it took its
// storage from. The stack's array outlives the pop, so a slot left as it
// was would keep that storage alive even when the run stops on a budget
// and so never hands it back.
func TestPoppedSlotCleared(t *testing.T) {
	emptySpares()
	cfg, spec := config.BaselineMCM(), probeSpec(nil)
	mustRun(t, cfg.Clone(), spec)
	if n := spareCount(); n != 1 {
		t.Fatalf("a drained run left %d storages on the stack, want 1", n)
	}
	m, err := New(cfg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunWith(spec, RunOptions{MaxEvents: 10_000, CheckEvery: 64})
	wantSimError(t, err, KindMaxEvents)
	spares.Lock()
	slot := spares.stack[:1][0]
	spares.Unlock()
	if !reflect.ValueOf(slot).IsZero() {
		t.Fatal("the stack slot the run popped still references the storage it held")
	}
}

// TestComponentNames pins the name of every kind of component record, as
// the metrics stream and audit reports print it, on a cold machine and on
// one built on recycled records, and the name and source module of every
// link of each topology, in the order the metrics stream lists them.
func TestComponentNames(t *testing.T) {
	cfg := config.MustMCMGPMs(8) // 8 modules of 32 SMs, an L1.5 each, 8 partitions
	emptySpares()
	cold := assembled(t, cfg.Clone(), probeSpec(nil))
	mustRun(t, config.OptimizedMCM(), probeSpec(nil))
	prev, _ := topSpare()
	warm := assembled(t, cfg.Clone(), probeSpec(nil))
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

	mesh, xbar := config.BaselineMCM(), config.BaselineMCM()
	mesh.Topology, xbar.Topology = config.TopoMesh, config.TopoCrossbar
	for _, c := range []struct {
		cfg   *config.Config
		links string // name@module of each link
	}{
		{config.BaselineMCM(), "ring-cw-0@0 ring-cw-1@1 ring-cw-2@2 ring-cw-3@3 " +
			"ring-ccw-0@0 ring-ccw-1@1 ring-ccw-2@2 ring-ccw-3@3"},
		{config.MultiGPUBaseline(), "ring-cw-0@0 ring-cw-1@1"},
		{mesh, "mesh-e-0@0 mesh-e-2@2 mesh-w-1@1 mesh-w-3@3 mesh-n-2@2 mesh-n-3@3 mesh-s-0@0 mesh-s-1@1"},
		{xbar, "xbar-0-1@0 xbar-0-2@0 xbar-0-3@0 xbar-1-0@1 xbar-1-2@1 xbar-1-3@1 " +
			"xbar-2-0@2 xbar-2-1@2 xbar-2-3@2 xbar-3-0@3 xbar-3-1@3 xbar-3-2@3"},
		{config.MustMonolithic(32), ""},
	} {
		m, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, l := range m.net.Links() {
			names = append(names, fmt.Sprintf("%s@%d", l.Res.Name(), l.GPM))
		}
		if got := strings.Join(names, " "); got != c.links {
			t.Errorf("%s links:\n got %s\nwant %s", c.cfg.Name, got, c.links)
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
// slices, the warp slab, each arena's slot slab and free stack, the
// engine's node slab and far heap), its capacity and the address of its
// backing array.
func storageShape(st *storage) []uintptr {
	sim := reflect.ValueOf(st.sim).Elem()
	var shape []uintptr
	for _, v := range []reflect.Value{
		reflect.ValueOf(st.sms), reflect.ValueOf(st.mods), reflect.ValueOf(st.prts),
		reflect.ValueOf(st.warps),
		reflect.ValueOf(st.ctas.slots), reflect.ValueOf(st.ctas.free),
		reflect.ValueOf(st.loads.slots), reflect.ValueOf(st.loads.free),
		reflect.ValueOf(st.stores.slots), reflect.ValueOf(st.stores.free),
		sim.FieldByName("nodes"), sim.FieldByName("far"),
	} {
		shape = append(shape, uintptr(v.Cap()), v.Pointer())
	}
	return shape
}
