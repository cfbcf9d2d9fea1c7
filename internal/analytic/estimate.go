package analytic

import (
	"math"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/cta"
	"mcmgpu/internal/noc"
	"mcmgpu/internal/workload"
)

// This file is the closed-form fast path of the simulator: an Estimator
// predicts, from a config.Config and a workload.Spec alone, the headline
// quantities the event engine measures — cycles/IPC, inter-module traffic,
// DRAM demand, hit rates per cache level, local fraction — in microseconds
// instead of seconds. The model is the paper's Section 3.3.1 bandwidth
// balance generalized into a min-of-bottlenecks roofline:
//
//	cycles = max(issue, xbar, link, L2-bank, DRAM, latency) + kernel gaps
//
// where the memory terms come from a traffic pyramid built class by class
// (own region / neighbor halo / shared hot region / scatter / uniform, per
// workload.AccessProfile), filtered through working-set hit-rate models of
// the L1, the module-side L1.5 and the memory-side L2, and split local vs
// remote by the placement and scheduling policy exactly as vm/cta home
// accesses. Machine rooflines derive from config.Config accessors, the noc
// link enumeration and the exported core timing constants, so the two
// models share one set of architectural parameters.
//
// The estimator is validated against the event engine on the golden
// experiment tables (see analytic_validation_test.go at the repository
// root) under CI-enforced relative-error and rank-correlation budgets.

// Calibration constants. These tune the closed-form model against the event
// engine on the golden tables; they are model parameters, not architecture
// (architectural constants live in config/core and are shared with the
// engine).
const (
	// dynStealRecovery is the fraction of chunk load imbalance the dynamic
	// (tail-stealing) scheduler recovers relative to static chunking.
	dynStealRecovery = 0.75
	// l1TimingEff discounts the L1's ideal wrap-revisit hit rate for timing
	// effects the closed form cannot see: a revisit only hits while the
	// line is still resident across the lap.
	l1TimingEff = 0.95
	// maxLineSpread widens the mean line latency toward the max over a
	// multi-line op (loads block on the slowest of LinesPerOp lines).
	maxLineSpread = 0.15
	// latOverlapExp blends the latency and throughput terms: parallelism
	// hides latency under bandwidth saturation, but never perfectly.
	latOverlapExp = 2.0
	// capSoftness is the exponent of the capacity discount clamp01(c/d)^s.
	// Linear (s=1) assumes re-references mix uniformly over the kernel;
	// real streams cluster them (neighbor CTAs re-touch a line soon after
	// its owner, stores precede their reloads), so a cache much smaller
	// than the working set still catches the short-distance mass.
	capSoftness = 0.5
	// l1ConflictSharpness is the exponent of the set-conflict discount
	// clamp01(slots/lines)^s on own-region L1 hits. Conflict thrashing is
	// harsher than capacity pressure: the own-region walk's re-reference
	// distance spans the whole region, so LRU within an oversubscribed set
	// group evicts lines right before their revisit.
	l1ConflictSharpness = 2.0
	// l2CyclicMargin scales the cross-kernel (cyclic re-walk) survival in
	// the L2: LRU under a cyclic stream starts evicting lines before their
	// revisit once the footprint nears capacity, so survival ramps over
	// [0, margin*capacity] instead of cliffing at capacity.
	l2CyclicMargin = 2.0
)

// Estimate is the closed-form prediction for one (config, workload, scale)
// job. Fields mirror core.Result where the engine measures the same
// quantity; they are float64 because the model predicts expectations, not
// event counts.
type Estimate struct {
	Config   string
	Workload string

	// Cycles is predicted execution time; IPC = WarpInstrs / Cycles.
	Cycles     float64
	WarpInstrs float64
	MemOps     float64
	IPC        float64

	// Predicted hit rates per level (loads, matching how the engine
	// counts: stores only probe L1/L1.5).
	L1HitRate  float64
	L15HitRate float64
	L2HitRate  float64

	// LocalFraction is the predicted fraction of post-L1 accesses homed in
	// the requesting module; RemoteFraction is its complement.
	LocalFraction  float64
	RemoteFraction float64

	// InterModuleBytes is predicted wire bytes (a byte per link traversed)
	// and InterModuleGBps the average rate over the predicted run.
	InterModuleBytes float64
	InterModuleGBps  float64

	// DRAMBytes is predicted DRAM device traffic; DRAMDemandGBps is the
	// rate it would need to sustain at the roofline-optimal runtime, i.e.
	// the demand the §3.3.1 balance argument compares link bandwidth to.
	DRAMBytes      float64
	DRAMDemandGBps float64

	// Bottleneck names the roofline term that set Cycles: one of "issue",
	// "xbar", "link", "l2bank", "dram", "latency".
	Bottleneck string
}

// Estimator predicts workload performance on one machine configuration.
// Build with NewEstimator (which precomputes the machine rooflines), then
// call Estimate per workload. Estimation is pure: no engine events, no
// randomness, no shared state — the same inputs always produce the same
// Estimate.
type Estimator struct {
	cfg *config.Config

	// Derived machine rooflines (bytes/cycle at 1 GHz).
	issueTotal  float64 // warp instrs/cycle machine-wide
	xbarGBps    float64
	l2BankGBps  float64
	dramGBps    float64
	aggLinkGBps float64 // summed unidirectional link bandwidth
	meanHops    float64 // mean links traversed between distinct modules

	l1Lines  float64 // per SM
	l15Lines float64 // per module (0 = disabled)
	l2Lines  float64 // machine-wide
}

// NewEstimator validates cfg and precomputes its rooflines. The noc is
// constructed once (no events are ever dispatched on it) so link counts and
// hop distances come from the same topology code the engine uses.
func NewEstimator(cfg *config.Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{
		cfg:        cfg,
		issueTotal: cfg.TotalIssuePerCycle(),
		xbarGBps:   cfg.TotalXbarGBps(),
		l2BankGBps: cfg.TotalL2BankGBps(),
		dramGBps:   cfg.TotalDRAMGBps(),
		l1Lines:    float64(cfg.L1.Lines()),
		l2Lines:    float64(cfg.TotalL2Bytes() / config.LineBytes),
	}
	if cfg.L15.Enabled() {
		e.l15Lines = float64(cfg.L15.Lines())
	}
	if cfg.Modules > 1 {
		net := noc.New(cfg)
		e.aggLinkGBps = net.AggregateGBps()
		e.meanHops = net.MeanHops()
	}
	return e, nil
}

// access classes, in workload.AccessProfile order.
const (
	clOwn = iota
	clNeighbor
	clShared
	clScatter
	clUniform
	clRowPanel
	clColPanel
	nClasses
)

// Estimate predicts spec's execution at the given scale, which it applies
// as a simulation does (workload.Spec.AtScale).
func (e *Estimator) Estimate(spec *workload.Spec, scale float64) (*Estimate, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.AtScale(scale)
	cfg := e.cfg

	// ---- Occupancy: the engine's own first-wave fill --------------------
	// It gives the resident CTAs, the SMs that hold them, and the CTAs
	// that share SM 0, which stand for every SM's in the L1 set-conflict
	// factor.
	hosting := make([]bool, cfg.TotalSMs())
	var residentCTAs, activeSMs int
	var sm0CTAs []int
	if _, err := core.FirstWave(cfg, spec, func(id, sm int) {
		residentCTAs++
		if !hosting[sm] {
			hosting[sm] = true
			activeSMs++
		}
		if sm == 0 {
			sm0CTAs = append(sm0CTAs, id)
		}
	}); err != nil {
		return nil, err
	}
	waves := math.Ceil(float64(spec.CTAs) / float64(residentCTAs))

	p := spec.Profile()
	G := float64(cfg.Modules)
	K := float64(spec.KernelIters)

	// ---- Work totals ---------------------------------------------------
	memOps := float64(spec.TotalMemOps())
	instrs := memOps * float64(spec.ComputePerMem+1)
	loads := p.LineAccesses * (1 - spec.WriteFraction) // line loads per kernel
	stores := p.LineAccesses * spec.WriteFraction      // line stores per kernel

	share := [nClasses]float64{p.Own, p.Neighbor, p.Shared, p.Scatter, p.Uniform, p.RowPanel, p.ColPanel}

	// ---- L1 hit model ---------------------------------------------------
	// Own-region hits come from coverage: the CTA's warps walk one shared
	// sequence over the region (seq = warp*ops + i), so unit strides
	// overlap L-1 of each op's L lines and walks longer than the region
	// wrap around and revisit it. The ideal revisit rate 1 - distinct/acc
	// is discounted for write ops (stores probe but never fill, so a
	// written line costs its next load a miss) and for residency timing.
	// Random classes hit per the working-set model against their region
	// and the L1's share of capacity.
	ctasPerActiveSM := float64(residentCTAs) / float64(activeSMs)
	var h1 [nClasses]float64
	accOwnCTA := p.LineAccesses * share[clOwn] / float64(spec.CTAs)
	dOwnCTA := ownDistinctCTA(spec, &p, accOwnCTA)
	if accOwnCTA > 0 {
		// Two distinct hit mechanisms with very different residency needs.
		// Spatial overlap — consecutive ops of the shared walk re-touching
		// the previous op's lines (sub-line strides, stencil halos) — hits
		// within a few cycles of the fill, immune to conflict thrash and
		// timing. Wrap revisits — the walk lapping the region — re-reference
		// at a distance of the whole region and only hit if the region
		// survives in the SM's set slots until the next lap.
		// Spatial hits need the previous op to have been a load (stores
		// probe without filling), hence the write-fraction discount; wrap
		// revisits hit lines some earlier lap load-filled, so writes in
		// between do not cost them anything.
		ideal := clamp01(1 - dOwnCTA/accOwnCTA)
		spatial := math.Min(clamp01(1-ownNewPerLine(spec, &p)), ideal)
		wrap := (ideal - spatial) * l1TimingEff * e.l1OwnConflict(int(p.OwnRegionLines), sm0CTAs, ctasPerActiveSM)
		if cap := e.l1Lines / ctasPerActiveSM; dOwnCTA > cap {
			wrap *= math.Pow(clamp01(cap/dOwnCTA), capSoftness)
		}
		h1[clOwn] = spatial*(1-spec.WriteFraction) + wrap
	}
	accNbCTA := loads * share[clNeighbor] / float64(spec.CTAs)
	h1[clNeighbor] = hitWorkingSet(accNbCTA, float64(p.NeighborWindowLines),
		e.l1Lines*math.Max(share[clNeighbor], 0.05)/ctasPerActiveSM)
	perSM := loads / float64(activeSMs)
	h1[clShared] = hitWorkingSet(perSM*share[clShared], float64(spec.SharedLines), e.l1Lines*share[clShared])
	h1[clScatter] = hitWorkingSet(perSM*share[clScatter], float64(spec.ScatterLines), e.l1Lines*share[clScatter])
	h1[clUniform] = hitWorkingSet(perSM*share[clUniform], float64(spec.FootprintLines), e.l1Lines*share[clUniform])
	// Panel streams walk strictly increasing positions (seq = warp*ops + i),
	// so within one kernel a CTA re-touches a panel line only if its walk
	// wraps the panel: the distinct count is the access count capped at the
	// panel lines the CTA's warps can reach.
	cand := float64(spec.PanelReach())
	for _, pc := range [2]struct {
		c     int
		panel float64
	}{{clRowPanel, float64(spec.RowPanelLines)}, {clColPanel, float64(spec.ColPanelLines)}} {
		if pc.panel <= 0 || share[pc.c] == 0 {
			continue
		}
		accCTA := loads * share[pc.c] / float64(spec.CTAs)
		d := math.Min(accCTA, math.Min(cand, pc.panel))
		// Lockstep walks (PatAttention) add a co-residency mechanism: SM
		// co-residents are spaced activeSMs apart in CTA id, so when that
		// spacing preserves the grid column they stream the SAME panel lines
		// in the SAME phase — one CTA's fills serve its neighbors' probes,
		// and the SM's whole probe stream shares one d-line window. GEMM's
		// k-loop skew staggers the phases, so it keeps the per-CTA model.
		n, cap1 := accCTA, e.l1Lines*share[pc.c]/ctasPerActiveSM
		if spec.Pattern == workload.PatAttention && pc.c == clColPanel &&
			spec.GridW > 0 && activeSMs%spec.GridW == 0 && ctasPerActiveSM > 1 {
			n = accCTA * ctasPerActiveSM
			cap1 = e.l1Lines * share[pc.c]
		}
		h1[pc.c] = hitWorkingSet2(n, d, cap1)
	}

	rho := spec.ReuseProb
	l1Hit := rho
	for c := 0; c < nClasses; c++ {
		l1Hit += (1 - rho) * share[c] * h1[c]
	}

	// Post-L1 traffic per class, per kernel: load misses plus all stores
	// (L1/L1.5 are write-through and write-no-allocate).
	var missL1, postStores [nClasses]float64
	for c := 0; c < nClasses; c++ {
		missL1[c] = loads * (1 - rho) * share[c] * (1 - h1[c])
		postStores[c] = stores * share[c]
	}

	// ---- Placement: local probability per class ------------------------
	pLocal := e.localProb(spec, &p, residentCTAs)
	// When the page map is statically determined — LinearInit pre-binding or
	// the region-aware binder — replace the probabilistic locality laws with
	// the exact per-class census of the map the engine installs.
	homeQ := e.placementHomes(spec, core.StaticPageMap(cfg, spec), dOwnCTA, &pLocal)

	var postL1, localPost float64
	for c := 0; c < nClasses; c++ {
		postL1 += missL1[c] + postStores[c]
		localPost += (missL1[c] + postStores[c]) * pLocal[c]
	}
	localFrac := 1.0
	if postL1 > 0 {
		localFrac = localPost / postL1
	}

	// ---- Distinct-line universes (for L1.5/L2 working sets) ------------
	universe := e.classUniverses(spec, &p, loads)
	mwEff, mhEff := e.panelSpan(spec)

	// ---- L1.5 ----------------------------------------------------------
	// The module-side cache sees each module's share of post-L1 load
	// traffic: remote-only under the paper's policy, everything under the
	// allocate-all ablation. Stores only probe, so they neither hit-count
	// nor allocate.
	var h15 [nClasses]float64
	var l15AccK, l15HitK float64 // per kernel, machine-wide (loads)
	if e.l15Lines > 0 {
		var in [nClasses]float64
		var inTotal float64
		for c := 0; c < nClasses; c++ {
			in[c] = missL1[c]
			if cfg.L15Alloc == config.AllocRemoteOnly {
				in[c] *= 1 - pLocal[c]
			}
			inTotal += in[c]
		}
		for c := 0; c < nClasses; c++ {
			if in[c] == 0 {
				continue
			}
			// Universe of cacheable lines seen by one module: own and
			// neighbor regions belong to the module's CTAs and split
			// across modules; panels split by how many module rows or
			// columns the scheduler's partition cuts the grid into;
			// shared/scatter/uniform regions are global — every module's
			// accesses sample the whole region. Under remote-only
			// allocation the cacheable universe is cut to the remote share.
			u := universe[c]
			switch c {
			case clOwn, clNeighbor:
				u /= G
			case clRowPanel:
				u /= float64(mhEff)
			case clColPanel:
				u /= float64(mwEff)
			}
			if cfg.L15Alloc == config.AllocRemoteOnly {
				u *= 1 - pLocal[c]
			}
			n := in[c] / G
			d := classDistinct(c, n, u)
			cap15 := e.l15Lines * in[c] / inTotal
			h15[c] = hitWorkingSet2(n, d, cap15)
			l15AccK += in[c]
			l15HitK += in[c] * h15[c]
		}
	}
	l15Hit := 0.0
	if l15AccK > 0 {
		l15Hit = l15HitK / l15AccK
	}

	// ---- L2 ------------------------------------------------------------
	// Memory-side, persists across kernels: arrivals repeat KernelIters
	// times over the same distinct lines, so convergence loops are where L2
	// reuse comes from even for streaming workloads.
	var arr, l2Miss, absorbed [nClasses]float64
	var arrK, storeArrK float64
	for c := 0; c < nClasses; c++ {
		load := missL1[c]
		if e.l15Lines > 0 {
			if cfg.L15Alloc == config.AllocRemoteOnly {
				absorbed[c] = (1 - pLocal[c]) * h15[c]
			} else {
				absorbed[c] = h15[c]
			}
			load *= 1 - absorbed[c]
		}
		arr[c] = load + postStores[c]
		arrK += arr[c]
		storeArrK += postStores[c]
	}
	var l2HitRun, l2ArrRun, l2MissRun, d2Total float64
	for c := 0; c < nClasses; c++ {
		if arr[c] == 0 {
			continue
		}
		n2 := arr[c] * K
		// Distinct lines arriving per kernel: the class's distinct touched
		// lines, but never more than actually arrive — everything the L1
		// or L1.5 absorbed beyond the first touch was a re-reference.
		d2 := math.Min(classDistinct(c, p.LineAccesses*share[c], universe[c]), arr[c])
		cap2 := e.l2Lines * arr[c] / arrK
		// Reuse splits by re-reference distance. Within-kernel re-arrivals
		// (stores rewriting lines their burst just loaded, concurrent halo
		// re-touches) are short-distance and hit even a tiny L2 — but only
		// when the fill they depend on actually reached the L2. When the
		// L1.5 intercepts the class's loads, the re-arrivals face an L2
		// that never saw the line and degrade to lap distance. Cross-kernel
		// reuse re-walks the whole per-kernel footprint, the cyclic pattern
		// LRU handles worst: survival falls off around half the footprint
		// fitting, not at the full-footprint boundary.
		within := (arr[c] - d2) * K
		cross := d2 * (K - 1)
		cFactor := clamp01(cap2 / (l2CyclicMargin * d2))
		wFactor := (1 - absorbed[c]) + absorbed[c]*cFactor
		h2 := clamp01((within*wFactor + cross*cFactor) / n2)
		l2Miss[c] = n2 * (1 - h2)
		l2ArrRun += n2
		l2HitRun += n2 * h2
		l2MissRun += l2Miss[c]
		d2Total += d2
	}
	l2Hit := 0.0
	if l2ArrRun > 0 {
		l2Hit = l2HitRun / l2ArrRun
	}

	// DRAM: every L2 miss fills a line; evictions beyond capacity write
	// back their dirty share.
	evictions := math.Max(0, l2MissRun-math.Min(e.l2Lines, d2Total))
	dirtyShare := 0.0
	if arrK > 0 {
		dirtyShare = storeArrK / arrK
	}
	dramBytes := config.LineBytes * (l2MissRun + evictions*dirtyShare)

	// ---- Inter-module wire bytes ---------------------------------------
	var wireBytes float64
	if cfg.Modules > 1 {
		var remLoads, remStores float64
		for c := 0; c < nClasses; c++ {
			rl := missL1[c] * (1 - pLocal[c])
			if e.l15Lines > 0 {
				rl *= 1 - h15[c]
			}
			remLoads += rl
			remStores += postStores[c] * (1 - pLocal[c])
		}
		loadWire := float64(cfg.Link.ReqHeaderBytes) + float64(config.LineBytes+cfg.Link.RespHeaderBytes)
		storeWire := float64(config.LineBytes + cfg.Link.ReqHeaderBytes)
		wireBytes = e.meanHops * (remLoads*loadWire + remStores*storeWire) * K
	}

	// ---- Roofline terms -------------------------------------------------
	// Page-bound placement can concentrate traffic on a few modules (the
	// LinearInit sweep binds a GEMM panel's pages to one or two chunks);
	// aggregate-bandwidth rooflines then overstate the machine, so the
	// memory-side terms are derated by the hottest module's excess share.
	hot := hotspotFactor(homeQ, &arr, cfg.Modules)
	imb := e.scheduleImbalance(spec)
	terms := [6]float64{
		instrs / (float64(activeSMs) * cfg.IssuePerSM) * imb, // issue
		config.LineBytes * postL1 * K / e.xbarGBps,           // xbar
		0, // link
		config.LineBytes * l2ArrRun / e.l2BankGBps * hot,                              // l2bank
		dramBytes / e.dramGBps * hot,                                                  // dram
		e.latencyTerm(spec, &p, pLocal, share, missL1, l1Hit, h15, l2Hit, imb, waves), // latency
	}
	if e.aggLinkGBps > 0 {
		terms[2] = wireBytes / e.aggLinkGBps
	}
	names := [6]string{"issue", "xbar", "link", "l2bank", "dram", "latency"}
	tMax, bottleneck := 0.0, names[0]
	for i, t := range terms {
		if t > tMax {
			tMax, bottleneck = t, names[i]
		}
	}
	// Secondary bottlenecks add partially unhidden time: a pure max()
	// assumes perfect overlap between, say, link serialization and issue,
	// which the engine does not achieve. The p-norm blend keeps the max
	// dominant while crediting near-equal terms.
	var pnorm float64
	for _, t := range terms {
		pnorm += math.Pow(t, latOverlapExp)
	}
	cycles := math.Pow(pnorm, 1/latOverlapExp)
	cycles += (K - 1) * core.KernelGapCycles
	cycles += waves * float64(cfg.L1.HitLatency+cfg.L2.HitLatency) // pipeline ramp

	est := &Estimate{
		Config:           cfg.Name,
		Workload:         spec.Name,
		Cycles:           cycles,
		WarpInstrs:       instrs,
		MemOps:           memOps,
		IPC:              instrs / cycles,
		L1HitRate:        l1Hit,
		L15HitRate:       l15Hit,
		L2HitRate:        l2Hit,
		LocalFraction:    localFrac,
		RemoteFraction:   1 - localFrac,
		InterModuleBytes: wireBytes,
		InterModuleGBps:  wireBytes / cycles,
		DRAMBytes:        dramBytes,
		DRAMDemandGBps:   dramBytes / math.Max(tMax, 1),
		Bottleneck:       bottleneck,
	}
	return est, nil
}

// localProb returns, per access class, the probability a post-L1 access is
// homed in the requesting module's own partitions under the config's
// placement and scheduling policy.
func (e *Estimator) localProb(spec *workload.Spec, p *workload.AccessProfile, residentCTAs int) [nClasses]float64 {
	cfg := e.cfg
	uniform := 1 / float64(cfg.Modules)
	var out [nClasses]float64
	for c := range out {
		out[c] = uniform
	}
	if cfg.Modules <= 1 {
		for c := range out {
			out[c] = 1
		}
		return out
	}
	if cfg.Placement != config.PlaceFirstTouch {
		return out
	}
	// First touch binds pages to their first toucher's module. A CTA's own
	// region is local only to the extent its pages are not shared with
	// CTAs scheduled on other modules: page-granularity false sharing is
	// what makes first touch useless without distributed scheduling.
	pageLines := float64(cfg.LinesPerPage())
	region := float64(p.OwnRegionLines)
	interior := clamp01((region - pageLines) / region)
	switch cfg.Scheduler {
	case config.SchedDistributed, config.SchedDynamic:
		// Neighboring CTAs share a module, so pages spanning CTA regions
		// are still first-touched by the owning chunk — except at chunk
		// boundaries, where a page straddles two modules' regions and
		// binds to whichever side touches it first. The leaked fraction is
		// the boundary pages' share of the chunked region, which grows
		// with the chunk count: the residual NUMA traffic that makes more,
		// smaller GPMs slightly worse even in the optimized design.
		chunks := float64(cfg.Modules * max(1, cfg.CTAChunksPerModule))
		totalOwn := region * float64(spec.CTAs)
		leak := clamp01(0.5 * (chunks - 1) * pageLines / math.Max(totalOwn, 1))
		if ceil := 1 - uniform; leak > ceil {
			leak = ceil
		}
		out[clOwn] = 1 - leak
		out[clNeighbor] = 1 - leak
	case config.SchedCentralized:
		// Interior pages bind to wherever the CTA first ran; the CTA
		// revisits that module only when the launch order repeats, which
		// holds for the initial fill but decays for the completion-driven
		// tail. Boundary pages are shared with neighbors on other modules
		// and effectively interleave.
		fracResident := float64(residentCTAs) / float64(spec.CTAs)
		pSame := fracResident + (1-fracResident)*uniform
		out[clOwn] = interior*pSame + (1-interior)*uniform
		out[clNeighbor] = uniform
	}
	// Shared, scatter and uniform regions are first-touched by whichever
	// module races there first, which interleaves them in expectation.
	return out
}

// placementHomes is the exact counterpart of localProb for statically
// determined page maps. When the workload is LinearInit (pages pre-bound by
// the init sweep) or the placement is region-aware (pages bound by the
// binder), pm is the page→module map the engine installs; this walks each
// class's touched lines against pm.Homes and its consumers' modules, and
// overwrites pLocal with the resulting per-class locality. The return value
// is each class's distribution of accesses over page-home modules (for the
// hotspot derate); nil means the page map is race-determined and the
// probabilistic laws stand.
func (e *Estimator) placementHomes(spec *workload.Spec, pm core.PageMap,
	dOwnCTA float64, pLocal *[nClasses]float64) *[nClasses][]float64 {

	G := e.cfg.Modules
	if G <= 1 || pm.Homes == nil {
		return nil
	}
	homes, layout := pm.Homes, pm.Layout // home -1: bound by a runtime race, uniform in expectation
	lpp := uint64(e.cfg.LinesPerPage())
	pages := uint64(len(homes))

	uni := 1.0 / float64(G)
	q := new([nClasses][]float64)
	var pl, count [nClasses]float64
	for c := range q {
		q[c] = make([]float64, G)
	}
	// addRange accumulates the lines [lo, hi) into class c. cons is the
	// distribution of the class's consumers over modules (nil = uniform).
	addRange := func(c int, lo, hi uint64, cons []float64) {
		if hi > spec.FootprintLines {
			hi = spec.FootprintLines
		}
		for line := lo; line < hi; line++ {
			home := homes[line/lpp]
			if home < 0 {
				for m := 0; m < G; m++ {
					q[c][m] += uni
				}
				pl[c] += uni
			} else {
				q[c][home]++
				if cons == nil {
					pl[c] += uni
				} else {
					pl[c] += cons[home]
				}
			}
			count[c]++
		}
	}

	rowBase, colBase, ownBase, perCTA := spec.Regions()
	rowWin, colWin := spec.PanelWindows()
	cons := make([]float64, G)
	if spec.GridW > 0 {
		if spec.RowPanelLines > 0 {
			span := rowWin
			for y := 0; y < spec.GridH; y++ {
				rowCons := consumerDist(cons, layout, spec.GridW, func(x int) int { return y*spec.GridW + x })
				lo := rowBase + uint64(y)*spec.RowPanelLines
				addRange(clRowPanel, lo, lo+span, rowCons)
			}
		}
		if spec.ColPanelLines > 0 {
			span := colWin
			for x := 0; x < spec.GridW; x++ {
				colCons := consumerDist(cons, layout, spec.GridH, func(y int) int { return y*spec.GridW + x })
				lo := colBase + uint64(x)*spec.ColPanelLines
				addRange(clColPanel, lo, lo+span, colCons)
			}
		}
	}
	dOwn := min(max(1, uint64(math.Ceil(dOwnCTA))), perCTA)
	for i := 0; i < spec.CTAs; i++ {
		var ctaCons []float64
		if layout != nil {
			for m := range cons {
				cons[m] = 0
			}
			if m := layout.Module(i); m >= 0 {
				cons[m] = 1
				ctaCons = cons
			}
		}
		lo := ownBase + uint64(i)*perCTA
		addRange(clOwn, lo, lo+dOwn, ctaCons)
	}
	addRange(clShared, 0, spec.SharedLines, nil)
	addRange(clScatter, spec.SharedLines, spec.SharedLines+spec.ScatterLines, nil)
	for pg := uint64(0); pg < pages; pg++ {
		wt := float64(min(lpp, spec.FootprintLines-pg*lpp))
		if home := homes[pg]; home < 0 {
			for m := 0; m < G; m++ {
				q[clUniform][m] += wt * uni
			}
		} else {
			q[clUniform][home] += wt
		}
		pl[clUniform] += wt * uni
		count[clUniform] += wt
	}

	for c := range q {
		if count[c] == 0 {
			q[c] = nil
			continue
		}
		pl[c] = clamp01(pl[c] / count[c])
		for m := range q[c] {
			q[c][m] /= count[c]
		}
		pLocal[c] = pl[c]
	}
	// Halo accesses land at the edges of the own regions; their page homes
	// track the own class closely enough to share its census.
	if q[clOwn] != nil {
		q[clNeighbor] = q[clOwn]
		pLocal[clNeighbor] = pLocal[clOwn]
	}
	return q
}

// consumerDist fills buf with the module distribution of the n CTAs the
// probe enumerates under the layout; a nil layout (centralized scheduling)
// returns nil, meaning uniform.
func consumerDist(buf []float64, layout cta.Layout, n int, probe func(i int) int) []float64 {
	if layout == nil || n <= 0 {
		return nil
	}
	for m := range buf {
		buf[m] = 0
	}
	for i := 0; i < n; i++ {
		if m := layout.Module(probe(i)); m >= 0 {
			buf[m] += 1 / float64(n)
		}
	}
	return buf
}

// hotspotFactor returns how much slower the machine's memory side runs than
// its aggregate bandwidth suggests when page homes concentrate arrivals on
// few modules: the hottest module's arrival share relative to a balanced
// spread, >= 1. arr is the per-class L2 arrival traffic.
func hotspotFactor(q *[nClasses][]float64, arr *[nClasses]float64, modules int) float64 {
	if q == nil || modules <= 1 {
		return 1
	}
	per := make([]float64, modules)
	var total float64
	for c := 0; c < nClasses; c++ {
		t := arr[c]
		if t == 0 {
			continue
		}
		total += t
		if qc := q[c]; qc != nil {
			for m := range per {
				per[m] += t * qc[m]
			}
		} else {
			for m := range per {
				per[m] += t / float64(modules)
			}
		}
	}
	if total == 0 {
		return 1
	}
	maxShare := 0.0
	for _, v := range per {
		if v > maxShare {
			maxShare = v
		}
	}
	return math.Max(1, float64(modules)*maxShare/total)
}

// l1OwnConflict returns the set-conflict factor (<= 1) on own-region L1
// revisit hits. CTA regions are contiguous slabs of region lines at
// cta*region, and the L1 indexes sets by the low line-address bits, so the
// sets an SM's resident regions can occupy are fixed by which CTAs share
// the SM: the first round(ctasPerActiveSM) of sm0CTAs, the CTAs the first
// wave puts on SM 0. When their regions are congruent modulo the set
// count, every resident region aliases into the same handful of sets and
// the revisit hits collapse — which is why the engine's L1 hit rate swings
// with the scheduler and the SM count even at identical cache geometry.
func (e *Estimator) l1OwnConflict(region int, sm0CTAs []int, ctasPerActiveSM float64) float64 {
	cfg := e.cfg
	sets := cfg.L1.Lines() / cfg.L1.Ways
	resident := min(int(math.Round(ctasPerActiveSM)), len(sm0CTAs))
	if sets <= 0 || region <= 0 || resident <= 1 {
		return 1
	}
	span := min(region, sets)
	covered := make([]bool, sets)
	slots := 0
	for _, id := range sm0CTAs[:resident] {
		base := id % sets * region % sets
		for k := 0; k < span; k++ {
			if s := (base + k) % sets; !covered[s] {
				covered[s] = true
				slots++
			}
		}
	}
	need := float64(resident * region)
	if have := float64(slots * cfg.L1.Ways); have < need {
		return math.Pow(have/need, l1ConflictSharpness)
	}
	return 1
}

// classUniverses returns the machine-wide distinct-line universe of each
// access class: the denominator of every working-set hit-rate estimate.
func (e *Estimator) classUniverses(spec *workload.Spec, p *workload.AccessProfile, loads float64) [nClasses]float64 {
	var u [nClasses]float64
	accOwnCTA := p.LineAccesses * p.Own / float64(spec.CTAs)
	u[clOwn] = ownDistinctCTA(spec, p, accOwnCTA) * float64(spec.CTAs)
	accNbCTA := loads * p.Neighbor / float64(spec.CTAs)
	u[clNeighbor] = expDistinct(accNbCTA, float64(p.NeighborWindowLines)) * float64(spec.CTAs)
	u[clShared] = float64(spec.SharedLines)
	u[clScatter] = float64(spec.ScatterLines)
	u[clUniform] = float64(spec.FootprintLines)
	// Panels: the CTAs along a row (column) stream a bounded candidate
	// window of their panel (the whole panel when the GEMM k-loop skew
	// staggers the walks), so the machine-wide universe is one window per
	// panel, not the full panel allocation.
	u[clRowPanel] = float64(spec.GridH) * float64(p.RowPanelWindow)
	u[clColPanel] = float64(spec.GridW) * float64(p.ColPanelWindow)
	for c := range u {
		if u[c] < 1 {
			u[c] = 1
		}
	}
	return u
}

// ownDistinctCTA returns the distinct own-region lines one CTA touches in
// one kernel: the deterministic coverage of its warps' shared walk. A
// unit-stride walk of acc line accesses adds min(stride, L)/L new lines per
// line accessed, a compute tile caps at the tile, an irregular walk's base
// lines are all distinct, and everything caps at the region (wrap-around).
func ownDistinctCTA(spec *workload.Spec, p *workload.AccessProfile, accOwnCTA float64) float64 {
	L := float64(spec.LinesPerOp)
	if p.TileLines > 0 {
		return math.Min(float64(p.TileLines), accOwnCTA)
	}
	return math.Min(float64(p.OwnRegionLines), accOwnCTA*ownNewPerLine(spec, p)+L)
}

// ownNewPerLine returns the fraction of an own-region walk's line accesses
// that land on lines no earlier op of the walk touched (ignoring wrap): the
// spatial-overlap complement. Tiled walks re-walk their tile, so every line
// past the first pass overlaps, and irregular walks never overlap.
func ownNewPerLine(spec *workload.Spec, p *workload.AccessProfile) float64 {
	if spec.Pattern == workload.PatIrregular {
		return 1
	}
	if p.TileLines > 0 {
		acc := p.LineAccesses * p.Own / float64(spec.CTAs)
		if acc <= 0 {
			return 1
		}
		return math.Min(1, float64(p.TileLines)/acc)
	}
	L := float64(spec.LinesPerOp)
	return math.Min(float64(p.StrideLines), L) / L
}

// classDistinct returns the expected distinct lines among n accesses of
// class c drawn from universe u: deterministic coverage for the structured
// own-region and panel walks, the uniform-sampling expectation for random
// classes.
func classDistinct(c int, n, u float64) float64 {
	if c == clOwn || c == clRowPanel || c == clColPanel {
		return math.Min(n, u)
	}
	return expDistinct(n, u)
}

// panelSpan returns how many module columns (mw) and rows (mh) the config's
// scheduler splits a 2-D CTA grid into: the panel-universe divisor each
// module sees. The centralized scheduler spreads every module over the whole
// grid; distributed chunking slices grid rows; the tiled scheduler uses its
// communication-minimizing factorization.
func (e *Estimator) panelSpan(spec *workload.Spec) (mw, mh int) {
	cfg := e.cfg
	if cfg.Modules <= 1 || spec.GridW == 0 {
		return 1, 1
	}
	switch cfg.Scheduler {
	case config.SchedTiled2D:
		return cta.TileFactor(core.KernelGrid(spec), cfg.Modules)
	case config.SchedDistributed, config.SchedDynamic:
		return 1, cfg.Modules
	}
	return 1, 1
}

// scheduleImbalance returns the compute-side slowdown factor of the
// config's CTA scheduler under the spec's work-imbalance gradient.
func (e *Estimator) scheduleImbalance(spec *workload.Spec) float64 {
	cfg := e.cfg
	if cfg.Modules <= 1 {
		return 1
	}
	switch cfg.Scheduler {
	case config.SchedDistributed:
		chunks := cfg.Modules * max(1, cfg.CTAChunksPerModule)
		return spec.ChunkImbalance(chunks)
	case config.SchedDynamic:
		chunks := cfg.Modules * max(1, cfg.CTAChunksPerModule)
		imb := spec.ChunkImbalance(chunks)
		return 1 + (imb-1)*(1-dynStealRecovery)
	case config.SchedTiled2D:
		// Super-tiles are static contiguous partitions like distributed
		// chunks; the index-gradient imbalance model carries over.
		return spec.ChunkImbalance(cfg.Modules)
	}
	return 1
}

// latencyTerm is the latency-bound execution time of the whole run: waves
// of resident warps each serially issuing ops whose memory waits cannot be
// hidden when parallelism is scarce.
func (e *Estimator) latencyTerm(spec *workload.Spec, p *workload.AccessProfile,
	pLocal [nClasses]float64, share, missL1 [nClasses]float64,
	l1Hit float64, h15 [nClasses]float64, l2Hit, imb, waves float64) float64 {

	cfg := e.cfg
	// Expected latency of one line load, weighted over the hit/miss and
	// local/remote paths the engine's startLoad walks.
	hitLat := float64(cfg.L1.HitLatency)
	missBase := float64(cfg.L1.HitLatency) + float64(cfg.XbarLatency) +
		float64(cfg.L2.HitLatency) + (1-l2Hit)*float64(cfg.DRAMLatency)

	var missTotal, missWeighted float64
	for c := 0; c < nClasses; c++ {
		m := missL1[c]
		if m == 0 {
			continue
		}
		lat := missBase
		remote := 1 - pLocal[c]
		if e.l15Lines > 0 && (cfg.L15Alloc == config.AllocAll || remote > 0) {
			probed := 1.0
			if cfg.L15Alloc == config.AllocRemoteOnly {
				probed = remote
			}
			// A probed access either short-circuits at the L1.5 hit
			// latency or pays the miss penalty on top of the full path.
			lat = lat*(1-probed*h15[c]) + probed*h15[c]*(float64(cfg.L1.HitLatency)+float64(cfg.XbarLatency)+float64(cfg.L15.HitLatency))
			lat += probed * (1 - h15[c]) * core.L15MissPenalty
		}
		lat += remote * 2 * e.meanHops * float64(cfg.Link.HopLatency)
		missTotal += m
		missWeighted += m * lat
	}
	missLat := missBase
	if missTotal > 0 {
		missLat = missWeighted / missTotal
	}
	loadLat := l1Hit*hitLat + (1-l1Hit)*missLat
	// Loads block on the slowest of LinesPerOp lines.
	if spec.LinesPerOp > 1 {
		loadLat *= 1 + maxLineSpread*math.Log2(float64(spec.LinesPerOp))
	}

	issue := float64(spec.ComputePerMem+1) / cfg.IssuePerSM
	wf := spec.WriteFraction
	opLat := issue + (1-wf)*loadLat + wf*core.StoreAckCycles
	return waves * p.MeanOpsPerWarp * opLat * float64(spec.KernelIters) * imb
}

// hitWorkingSet estimates the hit rate of n uniform random accesses into a
// region of r distinct lines through a cache granted c lines of capacity:
// the re-reference share 1 - distinct/n, scaled down when the touched
// working set exceeds the capacity share.
func hitWorkingSet(n, r, c float64) float64 {
	if n <= 0 || r <= 0 {
		return 0
	}
	d := expDistinct(n, r)
	return hitWorkingSet2(n, d, c)
}

// hitWorkingSet2 is hitWorkingSet with the distinct-line count d already
// known.
func hitWorkingSet2(n, d, c float64) float64 {
	if n <= 0 || d <= 0 {
		return 0
	}
	h := 1 - d/n
	if h <= 0 {
		return 0
	}
	if c < d {
		h *= math.Pow(clamp01(c/d), capSoftness)
	}
	return clamp01(h)
}

// expDistinct returns the expected number of distinct lines touched by n
// uniform accesses into a region of r lines: r*(1-exp(-n/r)).
func expDistinct(n, r float64) float64 {
	if n <= 0 || r <= 0 {
		return 0
	}
	return r * (1 - math.Exp(-n/r))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
