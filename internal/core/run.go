package core

import (
	"fmt"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/config"
	"mcmgpu/internal/cta"
	"mcmgpu/internal/engine"
	"mcmgpu/internal/workload"
)

// Event kinds. Every event the machine schedules is a (ref, kind) pair:
// kind names the action, and ref the index of the context it acts on in
// that context's arena (the fault kinds ignore it).
const (
	evWarpStep     uint8 = iota // warp: issue the next compute block or retire
	evWarpMem                   // warp: perform the memory operation
	evLoadArrive                // load: request reached the line's home partition
	evLoadRespond               // load: response data departs the home module
	evStoreArrive               // store: reached the line's home partition
	evStoreRelease              // store: line landed in the home L2; free the slot
	evStall                     // fault: reschedule in the same cycle (see checkBudgets)
	evSpin                      // fault: reschedule one cycle ahead
	evClamp                     // fault: reschedule one cycle in the past (see corruptCounter)
)

// Dispatch implements engine.Handler: it is the one place an event reaches
// its receiver.
func (m *Machine) Dispatch(ref uint32, kind uint8) {
	switch kind {
	case evWarpStep:
		m.step(ref)
	case evWarpMem:
		m.mem(ref)
	case evLoadArrive:
		m.partitionLoad(ref)
	case evLoadRespond:
		m.respond(ref)
	case evStoreArrive:
		m.partitionStore(ref)
	case evStoreRelease:
		m.release(ref)
	case evStall:
		// The queue never drains and the clock never advances: the
		// livelock only an event or wall-clock budget catches.
		m.sim.After(0, ref, evStall)
	case evSpin:
		// The queue never drains and the clock runs away, which is what a
		// cycle budget catches.
		m.sim.After(1, ref, evSpin)
	case evClamp:
		// The engine clamps one event per dispatch, so the clamped count
		// grows with the event count while simulated time still advances;
		// only the clamp guard catches it.
		m.sim.At(m.sim.Now()-1, ref, evClamp)
	}
}

// ctaCtx tracks one resident CTA until all of its warps drain.
type ctaCtx struct {
	sm   uint32 // index of the CTA's SM
	live int32  // warps not yet retired
}

// warpCtx is one warp's event-driven execution state, addressed by its
// index in the warp arena. It parks itself on a full store buffer by that
// index too. The embedded Stream is re-seeded in place by launchCTA, so
// relaunching a warp allocates nothing.
//
// A high-parallelism cell keeps thousands of warps resident, so their size
// is host working set: the fields mem and loadComplete touch come first,
// within the first host cache line, and the whole context fits three
// (TestWarpContextSize).
type warpCtx struct {
	// In-flight memory operation state.
	loadDone engine.Cycle // latest completion among the op's loads
	pending  int32        // outstanding loads of the current op
	op       workload.Op
	lineIdx  int32 // next store line to issue

	sm  uint32 // index of the warp's SM
	cta uint32 // index of the warp's CTA context
	st  workload.Stream
}

// RunWith executes the workload on the machine: KernelIters sequential
// kernel launches with cache flushes at each kernel boundary, then collects
// the Result. RunWith may be called once per Machine. With the zero
// RunOptions the run completes, or a programmer-invariant violation panics.
// opts bounds the run: it additionally terminates — with a *SimError
// carrying a diagnosis snapshot — when a budget is exhausted, the wall
// deadline passes, or the context is canceled. With limits set but not
// tripped, the result is byte-identical to an unbounded run (the budget
// check only observes the simulation).
//
// A run that drains and succeeds hands the machine's storage to the spare
// for the next New (see pool.go). A run stopped by a budget, cancellation,
// an invariant violation or a panic keeps it, and the GC takes it.
func (m *Machine) RunWith(spec *workload.Spec, opts RunOptions) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("core: machine %q already ran; build a new one", m.cfg.Name)
	}
	m.ran = true
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.spec = spec
	m.opts = opts
	m.setupPlacement()
	// Engine hooks run in install order. The budget check goes first so a
	// run that is both over budget and inconsistent reports the budget trip
	// (the established failure mode) rather than whichever invariant the
	// corruption reached first; the sampler goes last.
	if opts.bounded() {
		m.sim.AddHook(opts.checkEvery(), m.checkBudgets)
	}
	if opts.Audit || audit.Forced() {
		m.aud = m.newAuditor()
		m.sim.AddHook(DefaultAuditEvery, m.periodicAudit)
	}
	if opts.Metrics != nil {
		m.attachMetrics(opts.Metrics)
	}

	for iter := 0; iter < spec.KernelIters; iter++ {
		if iter > 0 {
			// Kernel launch overhead between convergence-loop iterations.
			m.sim.RunUntil(m.sim.Now() + KernelGapCycles)
			if err := m.sim.StopErr(); err != nil {
				return nil, err
			}
		}
		if err := m.runKernel(); err != nil {
			return nil, err
		}
		m.kernelsDone++
		// Kernel-boundary audit: the queue has drained, so the drain
		// invariants and end-to-end flow laws apply. Audited before the
		// boundary flush so the caches are checked in their populated state.
		if m.aud != nil {
			if err := m.runAudit(audit.Boundary); err != nil {
				return nil, err
			}
		}
		if opts.Metrics != nil {
			opts.Metrics.KernelBoundary(m.sim.Now(), m.sim.Processed())
		}
		m.flushKernelBoundary()
	}
	if opts.Metrics != nil {
		opts.Metrics.Finish(m.sim.Now(), m.sim.Processed())
		if err := opts.Metrics.Err(); err != nil {
			return nil, fmt.Errorf("core: metrics export: %w", err)
		}
	}
	res := m.collect()
	m.handBack()
	return res, nil
}

// KernelGrid returns the CTA grid shape the schedulers partition for spec:
// its 2-D grid and panel sizes, or a flat index space for 1-D workloads.
func KernelGrid(spec *workload.Spec) cta.Grid {
	return cta.Grid{CTAs: spec.CTAs, W: spec.GridW, H: spec.GridH,
		RowPanelLines: spec.RowPanelLines, ColPanelLines: spec.ColPanelLines}
}

// PageMap is the part of a run's page→module map that is fixed before the
// first kernel runs. The engine installs it (Machine.setupPlacement) and the
// analytic estimator takes its locality census from it, so the two models
// read one placement.
type PageMap struct {
	// Layout is the kernel's static CTA→module layout; nil under centralized
	// scheduling, or when Homes is nil.
	Layout cta.Layout
	// Binder is the region-aware page binder; nil unless the placement is
	// region-aware.
	Binder func(page uint64) int
	// Homes holds each footprint page's static home module, or -1 for a
	// page bound at run time by a first-touch race. It is nil when no page
	// is statically placed (interleave, or first touch without LinearInit).
	Homes []int
}

// StaticPageMap computes the page→module map that cfg's placement policy
// fixes before spec's first kernel: the region-aware binder's homes and, for
// LinearInit workloads, the pages the init sweep first-touched.
func StaticPageMap(cfg *config.Config, spec *workload.Spec) PageMap {
	if cfg.Placement == config.PlaceInterleave ||
		(cfg.Placement == config.PlaceFirstTouch && !spec.LinearInit) {
		return PageMap{}
	}
	// A throwaway scheduler instance supplies the static CTA-to-module
	// layout; the centralized scheduler has none (layout stays nil).
	layout, _ := cta.New(cfg, KernelGrid(spec)).(cta.Layout)
	pm := PageMap{Layout: layout}
	lpp := uint64(cfg.LinesPerPage())
	if cfg.Placement == config.PlaceRegionAware && layout != nil {
		pm.Binder = func(page uint64) int { return spec.RegionHome(page*lpp, layout.Module) }
	}
	// The init sweep wrote the footprint linearly before the first compute
	// kernel: its CTA j first-touched the j-th contiguous slice, and page
	// mappings persist. The region-aware binder overrides the sweep where it
	// knows the owning region; other pages go to the module the sweep's
	// layout ran the covering CTA on. A centralized init race has no static
	// layout, so those pages spread round-robin.
	pages := (spec.FootprintLines + lpp - 1) / lpp
	pm.Homes = make([]int, pages)
	for page := range pm.Homes {
		home := -1
		if pm.Binder != nil {
			home = pm.Binder(uint64(page))
		}
		if home < 0 && spec.LinearInit {
			if layout != nil {
				home = layout.Module(int(uint64(page) * uint64(spec.CTAs) / pages))
			}
			if home < 0 {
				home = page % cfg.Modules
			}
		}
		pm.Homes[page] = home
	}
	return pm
}

// setupPlacement installs the static page map: the region-aware binder,
// which homes region pages at first touch, and for LinearInit workloads the
// init sweep's bindings of every page.
func (m *Machine) setupPlacement() {
	pm := StaticPageMap(m.cfg, m.spec)
	if pm.Binder != nil {
		m.amap.SetBinder(pm.Binder)
	}
	if m.spec.LinearInit {
		for page, home := range pm.Homes {
			m.amap.Prebind(uint64(page), home)
		}
	}
}

// FirstWave starts a kernel of spec on an idle machine built from cfg. It
// builds the scheduler cfg selects and passes over the SMs, which alternate
// across modules, handing each SM the next CTA its module's scheduler gives
// until every SM is full or a pass launches nothing. With the centralized
// scheduler this spreads consecutive CTAs across GPMs (Figure 8a); the
// distributed scheduler hands each module only its own contiguous chunk
// (Figure 8b). launch receives every CTA of the wave with the index of its
// SM, in launch order, and the returned scheduler holds the CTAs left for
// the SMs that free up later. FirstWave refuses a CTA wider than an SM.
//
// The engine starts every kernel here, and the analytic estimator reads
// its occupancy and co-residency from the same fill.
func FirstWave(cfg *config.Config, spec *workload.Spec, launch func(cta, sm int)) (cta.Scheduler, error) {
	if spec.WarpsPerCTA > cfg.WarpsPerSM {
		return nil, fmt.Errorf("core: CTA needs %d warps, SM holds %d", spec.WarpsPerCTA, cfg.WarpsPerSM)
	}
	sched := cta.New(cfg, KernelGrid(spec))
	// A pass launches at most one CTA per SM, so every SM has room during
	// the first perSM passes. An SM still not full after them belongs to a
	// module the scheduler ran dry, and a dry module stays dry for the rest
	// of the wave.
	sms, perSM := cfg.TotalSMs(), cfg.CTAsPerSM(spec.WarpsPerCTA)
	for pass, launched := 0, true; launched && pass < perSM; pass++ {
		launched = false
		for s := 0; s < sms; s++ {
			if idx := sched.Next(smModule(cfg, s)); idx >= 0 {
				launch(idx, s)
				launched = true
			}
		}
	}
	return sched, nil
}

// launchBound returns the most CTAs a kernel of spec can keep resident on
// a machine built from cfg at once: all of them, or as many as fill every
// SM. No scheduler, however it places CTAs, launches more.
func launchBound(cfg *config.Config, spec *workload.Spec) int {
	return min(spec.CTAs, cfg.TotalSMs()*cfg.CTAsPerSM(spec.WarpsPerCTA))
}

// runKernel launches all CTAs of one kernel and drains the event queue. It
// returns the error that refused the launch or stopped the drain, if any.
// The CTA and warp arenas are sized from the launch bound first, so they
// never grow while the kernel runs.
func (m *Machine) runKernel() error {
	now := m.sim.Now()
	ctas := launchBound(m.cfg, m.spec)
	m.ctas.size(ctas)
	m.warps.size(ctas * m.spec.WarpsPerCTA)
	sched, err := FirstWave(m.cfg, m.spec, func(idx, s int) { m.launchCTA(idx, s, now) })
	if err != nil {
		return err
	}
	m.sched = sched
	m.sim.Run()
	if err := m.sim.StopErr(); err != nil {
		// A budget terminated the drain; the queue is intentionally not
		// empty, so the drained-kernel invariant below does not apply.
		return err
	}
	if m.liveCTA != 0 || m.sched.Remaining() != 0 {
		panic(fmt.Sprintf("core: kernel drained with %d live CTAs and %d unissued",
			m.liveCTA, m.sched.Remaining()))
	}
	return nil
}

// launchCTA places CTA idx on SM s and starts its warps at time at.
func (m *Machine) launchCTA(idx, s int, at engine.Cycle) {
	m.sms[s].HostCTA(m.spec.WarpsPerCTA)
	m.liveCTA++
	c := m.ctas.take()
	m.ctas.slots[c] = ctaCtx{sm: uint32(s), live: int32(m.spec.WarpsPerCTA)}
	for w := 0; w < m.spec.WarpsPerCTA; w++ {
		i := m.warps.take()
		wc := &m.warps.slots[i]
		wc.sm, wc.cta = uint32(s), c
		wc.st.Init(m.spec, idx, w)
		m.sim.At(at, i, evWarpStep)
	}
}

// step issues warp w's next compute block, or retires the warp when its
// stream is exhausted.
func (m *Machine) step(w uint32) {
	wc := &m.warps.slots[w]
	if !wc.st.Next(m.spec, &wc.op) {
		c := wc.cta
		m.warps.put(w) // no events reference the warp once its stream ends
		cc := &m.ctas.slots[c]
		cc.live--
		if cc.live == 0 {
			m.ctaDone(c)
		}
		return
	}
	instrs := uint64(wc.op.Compute) + 1 // the memory instruction issues too
	m.instrs += instrs
	t := m.sms[wc.sm].Issue.Reserve(m.sim.Now(), instrs)
	m.sim.At(t, w, evWarpMem)
}

// mem performs warp w's memory operation. Loads block the warp until the
// slowest line returns; stores retire after a fixed acknowledge delay while
// their traffic drains asynchronously, subject to store-buffer backpressure.
func (m *Machine) mem(w uint32) {
	m.memOps++
	wc := &m.warps.slots[w]
	if wc.op.Write {
		wc.lineIdx = 0
		m.memWrite(w)
		return
	}
	wc.pending = wc.op.NumLines
	wc.loadDone = m.sim.Now()
	for _, line := range wc.op.Lines[:wc.op.NumLines] {
		m.startLoad(w, uint64(line))
	}
}

// loadComplete joins one line of warp w's load op; when the last line lands
// the warp resumes at the latest completion time.
func (m *Machine) loadComplete(w uint32, t engine.Cycle) {
	wc := &m.warps.slots[w]
	if t > wc.loadDone {
		wc.loadDone = t
	}
	wc.pending--
	if wc.pending == 0 {
		m.sim.At(wc.loadDone, w, evWarpStep)
	}
}

// memWrite issues warp w's store lines. Stores retire once they enter the
// store buffer; a full buffer parks the warp until an in-flight store
// completes, which is how memory-system congestion back-pressures
// write-heavy code.
func (m *Machine) memWrite(w uint32) {
	wc := &m.warps.slots[w]
	s := &m.sms[wc.sm]
	for wc.lineIdx < wc.op.NumLines {
		if s.StoreFull() {
			s.AwaitStore(w)
			return
		}
		s.AcquireStore()
		m.startStore(wc.sm, uint64(wc.op.Lines[wc.lineIdx]))
		wc.lineIdx++
	}
	m.sim.After(StoreAckCycles, w, evWarpStep)
}

// ctaDone retires CTA c and immediately pulls the next CTA for the freed
// SM's module, as hardware does when resources free up.
func (m *Machine) ctaDone(c uint32) {
	s := int(m.ctas.slots[c].sm)
	m.ctas.put(c)
	m.sms[s].RetireCTA(m.spec.WarpsPerCTA)
	m.liveCTA--
	if idx := m.sched.Next(m.sms[s].Module()); idx >= 0 {
		m.launchCTA(idx, s, m.sim.Now())
	}
}
