// Package core assembles the full simulated machine and implements the
// paper's primary contribution: the MCM-GPU — a single logical GPU built
// from multiple GPU modules (GPMs) on one package — together with its two
// comparators, the monolithic single-die GPU and the board-level multi-GPU
// system. All three are instances of one Machine whose shape comes entirely
// from a config.Config, which is what lets every figure of the paper be
// regenerated by swapping configurations.
//
// A Machine executes a synthetic workload (internal/workload) kernel by
// kernel. Warps are event-driven actors alternating compute blocks
// (reservations on their SM's issue resource) with memory operations that
// walk the hierarchy: L1 → GPM-Xbar → [module-side L1.5] → on-package ring →
// memory-side L2 → DRAM. Caches are flushed at kernel boundaries (software
// coherence, Section 5.1.1); page mappings persist across kernels so
// first-touch placement composes with distributed CTA scheduling across
// kernel launches (Figure 12).
package core

import (
	"mcmgpu/internal/audit"
	"mcmgpu/internal/cache"
	"mcmgpu/internal/config"
	"mcmgpu/internal/cta"
	"mcmgpu/internal/dram"
	"mcmgpu/internal/energy"
	"mcmgpu/internal/engine"
	"mcmgpu/internal/noc"
	"mcmgpu/internal/vm"
	"mcmgpu/internal/workload"
)

// These timing constants are exported because the analytic estimator
// (internal/analytic) models the same machine in closed form; sharing the
// values keeps the two models from drifting apart.
const (
	// StoreAckCycles is how long a warp waits after issuing a store; GPU
	// stores retire without waiting for memory.
	StoreAckCycles = 4
	// L15MissPenalty is the added latency of probing the module-side cache
	// before forwarding a miss. It is what makes the L1.5 hurt
	// latency-sensitive, low-parallelism applications (Figure 15's DWT/NN).
	L15MissPenalty = 12
	// KernelGapCycles models kernel launch overhead between the iterations
	// of a convergence loop.
	KernelGapCycles = 1000
)

// module holds per-GPM shared state.
type module struct {
	id     int
	xbar   engine.Resource
	l15    cache.Cache // in use only when hasL15
	hasL15 bool        // the config has an L1.5
}

// partition is one memory partition: an L2 slice in front of a DRAM device.
type partition struct {
	module int
	l2     cache.Cache
	bank   engine.Resource
	dram   dram.Partition
}

// Machine is one simulated GPU system. Create with New, run one workload
// with RunWith. A Machine is single use: RunWith may be called once.
type Machine struct {
	cfg  *config.Config
	net  *noc.Network
	amap *vm.AddressMap
	mtr  *energy.Meter

	sched   cta.Scheduler
	spec    *workload.Spec
	liveCTA int
	ran     bool

	// Invariant auditing (see audit.go). aud is nil unless RunOptions.Audit
	// or MCMGPU_AUDIT enabled it; kernelsDone counts completed kernels for
	// the cta-flow conservation law.
	aud         *audit.Auditor
	kernelsDone int

	// Bounded-run state (see lifecycle.go). opts is only consulted when a
	// budget check is installed.
	opts          RunOptions
	faultFired    bool
	budgetCorrupt bool

	// The event engine, the caches' way arrays and set lists, the SM,
	// module and partition records and the context arenas, taken from the
	// spare stack by New and handed back by a drained run (see pool.go).
	storage

	// counters
	instrs     uint64
	memOps     uint64
	lineReads  uint64
	lineWrites uint64
	localAcc   uint64
	remoteAcc  uint64
	linkDomain energy.Domain
}

// New builds a machine for cfg. The configuration is validated; geometry
// errors surface here rather than mid-run. The machine's storage, its
// component records included, comes from the spare stack when a previous
// drained run handed back one that fits (see pool.go), and New initializes
// every record in place.
func New(cfg *config.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l15Lines, l15Sets := 0, 0
	if cfg.L15.Enabled() {
		l15Lines, l15Sets = cfg.L15.Lines(), cfg.L15.Lines()/cfg.L15.Ways
	}
	l2Sets, l1Sets := cfg.L2.Lines()/cfg.L2.Ways, cfg.L1.Lines()/cfg.L1.Ways
	m := &Machine{
		cfg:  cfg,
		net:  noc.New(cfg),
		amap: vm.NewAddressMap(cfg),
		mtr:  energy.NewMeter(),
		storage: takeStorage(cfg,
			cfg.Modules*l15Lines+cfg.TotalPartitions()*cfg.L2.Lines()+cfg.TotalSMs()*cfg.L1.Lines(),
			cfg.Modules*l15Sets+cfg.TotalPartitions()*l2Sets+cfg.TotalSMs()*l1Sets),
	}
	// cut takes the next n entries off a slab, in the order the caches are
	// initialized below.
	slab, sets := m.slab, m.sets
	cut := func(s *[]uint32, n int) []uint32 {
		w := (*s)[:n:n]
		*s = (*s)[n:]
		return w
	}
	m.sim.SetHandler(m)
	m.linkDomain = energy.DomainPackage
	if cfg.Link.Board {
		m.linkDomain = energy.DomainBoard
	}

	for g := range m.mods {
		mod := &m.mods[g]
		*mod = module{id: g, hasL15: cfg.L15.Enabled()}
		mod.xbar.Init("xbar-%d", g, cfg.XbarGBps)
		if mod.hasL15 {
			mod.l15.Init("l15-%d", g, cut(&slab, l15Lines), cut(&sets, l15Sets), cfg.L15.Ways, cfg.L15.WriteBack)
		}
	}
	for p := range m.prts {
		pt := &m.prts[p]
		pt.module = p / cfg.PartitionsPerModule
		pt.l2.Init("l2-%d", p, cut(&slab, cfg.L2.Lines()), cut(&sets, l2Sets), cfg.L2.Ways, cfg.L2.WriteBack)
		pt.bank.Init("l2bank-%d", p, cfg.DRAMGBps*cfg.L2BWMult)
		pt.dram.Init(p, cfg.DRAMGBps, cfg.DRAMLatency)
	}
	for i := range m.sms {
		m.sms[i].Init(i, smModule(cfg, i), cfg, cut(&slab, cfg.L1.Lines()), cut(&sets, l1Sets))
	}
	return m, nil
}

// smModule returns the module of SM i. Consecutive SMs alternate across
// modules; with the centralized scheduler this reproduces Figure 8a, where
// consecutive CTAs land on different GPMs.
func smModule(cfg *config.Config, i int) int { return i % cfg.Modules }

// flushKernelBoundary invalidates the software-coherent levels (L1 per SM,
// L1.5 per module) exactly once per synchronization event.
func (m *Machine) flushKernelBoundary() {
	for i := range m.sms {
		m.sms[i].FlushL1()
	}
	for g := range m.mods {
		if mod := &m.mods[g]; mod.hasL15 {
			mod.l15.Flush()
		}
	}
}
