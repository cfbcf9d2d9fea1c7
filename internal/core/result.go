package core

import (
	"fmt"

	"mcmgpu/internal/energy"
)

// Result summarizes one workload execution on one machine.
type Result struct {
	Config   string
	Workload string

	// Cycles is total execution time in GPU cycles (= ns at 1 GHz).
	Cycles uint64
	// WarpInstrs is warp instructions issued; IPC = WarpInstrs / Cycles.
	WarpInstrs uint64
	// MemOps is warp-level memory operations performed.
	MemOps uint64
	// LineReads / LineWrites are cache-line-granularity accesses.
	LineReads  uint64
	LineWrites uint64

	// InterModuleBytes is wire bytes over inter-module links (a byte per
	// link traversed), and InterModuleGBps the average rate — the paper's
	// "inter-GPM bandwidth" (Figures 7, 10, 14).
	InterModuleBytes uint64
	InterModuleGBps  float64

	// DRAMBytes is bytes moved at DRAM devices.
	DRAMBytes uint64

	// Hit rates per level (combined read+write), with the access counts the
	// denominators came from. A 0 rate with 0 accesses means the level was
	// disabled or never reached, not that it thrashed; renderers consult the
	// counts to show a dash instead of a fake 0% (see report.Rate).
	L1HitRate   float64
	L1Accesses  uint64
	L15HitRate  float64
	L15Accesses uint64
	L2HitRate   float64
	L2Accesses  uint64

	// LocalFraction is the fraction of post-L1 accesses homed in the
	// requesting module's own partitions.
	LocalFraction float64

	// MappedPages is pages bound by first-touch placement (0 under
	// interleave).
	MappedPages int

	// PeakDRAMUtil is the utilization of the busiest DRAM partition, and
	// AvgDRAMUtil the mean across partitions; their gap measures the
	// partition camping / load imbalance first-touch can introduce.
	PeakDRAMUtil float64
	AvgDRAMUtil  float64

	// MaxLinkUtil is the utilization of the busiest inter-module link.
	MaxLinkUtil float64

	// ClampedEvents counts events the engine had to clamp from a past
	// timestamp to the current cycle (engine.Sim.Clamped). A handful is
	// floating-point slop; growth proportional to the event count means a
	// causality bug is hiding behind the clamp.
	ClampedEvents uint64

	// EnergyPJ breaks down data-movement energy per Table 2 domains.
	EnergyPJ EnergyBreakdown
}

// EnergyBreakdown is data-movement energy by domain, in picojoules.
type EnergyBreakdown struct {
	Chip    float64
	Package float64
	Board   float64
	DRAM    float64
	Total   float64
}

// IPC returns warp instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.WarpInstrs) / float64(r.Cycles)
}

// SpeedupOver returns this result's speedup relative to base (ratio of
// base's cycles to this run's cycles) for the same workload.
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.Workload != base.Workload {
		panic(fmt.Sprintf("core: speedup across different workloads %q vs %q", r.Workload, base.Workload))
	}
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %d cycles, IPC %.2f, inter-GPM %.0f GB/s, local %.0f%%, L2 hit %.0f%%",
		r.Config, r.Workload, r.Cycles, r.IPC(), r.InterModuleGBps,
		r.LocalFraction*100, r.L2HitRate*100)
}

// collect gathers counters from all components into a Result.
func (m *Machine) collect() *Result {
	cycles := uint64(m.sim.Now())
	r := &Result{
		Config:           m.cfg.Name,
		Workload:         m.spec.Name,
		Cycles:           cycles,
		WarpInstrs:       m.instrs,
		MemOps:           m.memOps,
		LineReads:        m.lineReads,
		LineWrites:       m.lineWrites,
		InterModuleBytes: m.net.TotalBytes(),
		MappedPages:      m.amap.MappedPages(),
		ClampedEvents:    m.sim.Clamped(),
	}
	if cycles > 0 {
		r.InterModuleGBps = float64(r.InterModuleBytes) / float64(cycles)
	}

	var l1Hits, l1Total uint64
	for i := range m.sms {
		s := &m.sms[i]
		l1Hits += s.L1.Hits()
		l1Total += s.L1.Accesses()
	}
	r.L1HitRate = ratio(l1Hits, l1Total)
	r.L1Accesses = l1Total

	var l15Hits, l15Total uint64
	for i := range m.mods {
		mod := &m.mods[i]
		if mod.hasL15 {
			l15Hits += mod.l15.Hits()
			l15Total += mod.l15.Accesses()
		}
	}
	r.L15HitRate = ratio(l15Hits, l15Total)
	r.L15Accesses = l15Total

	var l2Hits, l2Total, dramBytes uint64
	var peak, sum float64
	for i := range m.prts {
		p := &m.prts[i]
		l2Hits += p.l2.Hits()
		l2Total += p.l2.Accesses()
		dramBytes += p.dram.Bytes()
		u := p.dram.Utilization(m.sim.Now())
		sum += u
		if u > peak {
			peak = u
		}
	}
	r.L2HitRate = ratio(l2Hits, l2Total)
	r.L2Accesses = l2Total
	r.DRAMBytes = dramBytes
	r.PeakDRAMUtil = peak
	r.AvgDRAMUtil = sum / float64(len(m.prts))
	r.LocalFraction = ratio(m.localAcc, m.localAcc+m.remoteAcc)
	r.MaxLinkUtil = m.net.MaxLinkUtilization(m.sim.Now())

	r.EnergyPJ = EnergyBreakdown{
		Chip:    m.mtr.DomainPJ(energy.DomainChip),
		Package: m.mtr.DomainPJ(energy.DomainPackage),
		Board:   m.mtr.DomainPJ(energy.DomainBoard),
		DRAM:    m.mtr.DRAMPJ(),
		Total:   m.mtr.TotalPJ(),
	}
	return r
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
