package core

import "mcmgpu/internal/metrics"

// DefaultSampleEvery is how many event dispatches pass between polls of the
// metrics sampler hook. The poll itself is one subtraction and compare
// (emission happens only when a full cycle interval has elapsed), so this
// can be much finer than the audit cadence; finer polling tightens how far
// past the cycle interval a sample's span can stretch.
const DefaultSampleEvery = 512

// attachMetrics registers the machine's components as sampler probes and
// installs the engine sample hook. Everything registered is read-only from
// the sampler's point of view: resources via BusyThrough/Units, caches via
// their cumulative hit/access counters, and the live-state snapshot via a
// closure over the machine's counters.
func (m *Machine) attachMetrics(rec *metrics.Recorder) {
	rec.Begin(m.cfg.Name, m.spec.Name)
	for _, lk := range m.net.Links() {
		rec.AddResource("link", lk.GPM, lk.Res.Name(), lk.Res)
	}
	for g := range m.mods {
		mod := &m.mods[g]
		rec.AddResource("xbar", mod.id, mod.xbar.Name(), &mod.xbar)
	}
	for i := range m.prts {
		p := &m.prts[i]
		rec.AddResource("l2bank", p.module, p.bank.Name(), &p.bank)
		rec.AddResource("dram", p.module, p.dram.Name(), &p.dram)
	}
	for g := range m.mods {
		mod := &m.mods[g]
		var l1s []metrics.CacheCounters
		for i := range m.sms {
			if s := &m.sms[i]; s.Module() == mod.id {
				l1s = append(l1s, &s.L1)
			}
		}
		rec.AddCaches("l1", mod.id, l1s)
		if mod.hasL15 {
			rec.AddCaches("l15", mod.id, []metrics.CacheCounters{&mod.l15})
		}
		var l2s []metrics.CacheCounters
		for i := range m.prts {
			if p := &m.prts[i]; p.module == mod.id {
				l2s = append(l2s, &p.l2)
			}
		}
		rec.AddCaches("l2", mod.id, l2s)
	}
	rec.SetStateProbe(func() metrics.State {
		return metrics.State{
			LiveCTAs:       m.liveCTA,
			InFlightLoads:  m.loads.live(),
			InFlightStores: m.stores.live(),
		}
	})
	m.sim.AddHook(DefaultSampleEvery, func() error {
		rec.Tick(m.sim.Now(), m.sim.Processed())
		return nil
	})
}
