package core

import (
	"fmt"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/config"
	"mcmgpu/internal/cta"
	"mcmgpu/internal/engine"
	"mcmgpu/internal/sm"
	"mcmgpu/internal/workload"
)

// warpCtx event kinds.
const (
	evWarpStep uint8 = iota // issue the next compute block or retire
	evWarpMem               // perform the memory operation
)

// ctaCtx tracks one resident CTA until all of its warps drain. Recycled
// through Machine.freeCTAs.
type ctaCtx struct {
	idx  int
	sm   *sm.SM
	live int
	next *ctaCtx
}

// warpCtx is one warp's event-driven execution state. It is an engine.Event
// (its step/mem transitions are scheduled without closures) and an
// sm.StoreWaiter (it parks itself on a full store buffer). Recycled through
// Machine.freeWarps across CTA launches; the embedded Stream is re-seeded in
// place by launchCTA, so relaunching a warp allocates nothing.
//
// A high-parallelism cell keeps thousands of warps resident, so their size
// is host working set: the fields mem and loadComplete touch come first,
// within the first host cache line, and the whole context fits three
// (TestWarpContextSize).
type warpCtx struct {
	m *Machine

	// In-flight memory operation state.
	loadDone engine.Cycle // latest completion among the op's loads
	pending  int32        // outstanding loads of the current op
	op       workload.Op
	lineIdx  int32 // next store line to issue

	cta *ctaCtx
	st  workload.Stream
}

// Dispatch implements engine.Event.
func (wc *warpCtx) Dispatch(kind uint8) {
	if kind == evWarpStep {
		wc.step()
		return
	}
	wc.mem()
}

// StoreSlotFree implements sm.StoreWaiter: the warp resumes issuing the
// store lines it was parked on.
func (wc *warpCtx) StoreSlotFree() { wc.memWrite() }

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

// runKernel launches all CTAs of one kernel and drains the event queue. It
// returns the error that refused the launch or stopped the drain, if any.
func (m *Machine) runKernel() error {
	now := m.sim.Now()
	sched, err := FirstWave(m.cfg, m.spec, func(idx, s int) { m.launchCTA(idx, m.sms[s], now) })
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
func (m *Machine) launchCTA(idx int, s *sm.SM, at engine.Cycle) {
	s.HostCTA(m.spec.WarpsPerCTA)
	m.liveCTA++
	cc := m.getCTA()
	cc.idx, cc.sm, cc.live = idx, s, m.spec.WarpsPerCTA
	for w := 0; w < m.spec.WarpsPerCTA; w++ {
		wc := m.getWarp()
		wc.cta = cc
		wc.st.Init(m.spec, idx, w)
		m.sim.AtEvent(at, wc, evWarpStep)
	}
}

// step issues the warp's next compute block, or retires the warp when its
// stream is exhausted.
func (wc *warpCtx) step() {
	m := wc.m
	if !wc.st.Next(&wc.op) {
		cc := wc.cta
		m.putWarp(wc) // no events reference the warp once its stream ends
		cc.live--
		if cc.live == 0 {
			m.ctaDone(cc)
		}
		return
	}
	instrs := uint64(wc.op.Compute) + 1 // the memory instruction issues too
	m.instrs += instrs
	t := wc.cta.sm.Issue.Reserve(m.sim.Now(), instrs)
	m.sim.AtEvent(t, wc, evWarpMem)
}

// mem performs the warp's memory operation. Loads block the warp until the
// slowest line returns; stores retire after a fixed acknowledge delay while
// their traffic drains asynchronously, subject to store-buffer backpressure.
func (wc *warpCtx) mem() {
	wc.m.memOps++
	if wc.op.Write {
		wc.lineIdx = 0
		wc.memWrite()
		return
	}
	wc.pending = wc.op.NumLines
	wc.loadDone = wc.m.sim.Now()
	for _, line := range wc.op.Lines[:wc.op.NumLines] {
		wc.m.startLoad(wc, uint64(line))
	}
}

// loadComplete joins one line of a load op; when the last line lands the
// warp resumes at the latest completion time.
func (wc *warpCtx) loadComplete(t engine.Cycle) {
	if t > wc.loadDone {
		wc.loadDone = t
	}
	wc.pending--
	if wc.pending == 0 {
		wc.m.sim.AtEvent(wc.loadDone, wc, evWarpStep)
	}
}

// memWrite issues the op's store lines. Stores retire once they enter the
// store buffer; a full buffer parks the warp until an in-flight store
// completes, which is how memory-system congestion back-pressures
// write-heavy code.
func (wc *warpCtx) memWrite() {
	m := wc.m
	s := wc.cta.sm
	for wc.lineIdx < wc.op.NumLines {
		if s.StoreFull() {
			s.AwaitStore(wc)
			return
		}
		s.AcquireStore()
		m.startStore(s, uint64(wc.op.Lines[wc.lineIdx]))
		wc.lineIdx++
	}
	m.sim.AfterEvent(StoreAckCycles, wc, evWarpStep)
}

// ctaDone retires a CTA and immediately pulls the next CTA for the freed
// SM's module, as hardware does when resources free up.
func (m *Machine) ctaDone(cc *ctaCtx) {
	s := cc.sm
	m.putCTA(cc)
	s.RetireCTA(m.spec.WarpsPerCTA)
	m.liveCTA--
	idx := m.sched.Next(s.Module())
	if idx >= 0 {
		m.launchCTA(idx, s, m.sim.Now())
	}
}
