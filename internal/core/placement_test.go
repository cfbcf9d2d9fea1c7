package core

import (
	"testing"

	"mcmgpu/internal/config"
	"mcmgpu/internal/workload"
)

// TestStaticPageMapCensus holds the page map the engine installs to
// StaticPageMap for every scheduler × placement pair Validate accepts, on a
// suite sample plus the dense family. A LinearInit workload pre-binds
// exactly the pages StaticPageMap homes, each to its home. Otherwise nothing
// is pre-bound, and every page the binder homes binds to that home on first
// touch, whichever module touches it.
func TestStaticPageMapCensus(t *testing.T) {
	specs := append(workload.Dense(), workload.MIntensive()[0], workload.CIntensive()[0], workload.Limited()[0])
	for _, sched := range []config.SchedulerKind{config.SchedCentralized, config.SchedDistributed,
		config.SchedDynamic, config.SchedTiled2D} {
		for _, place := range []config.PlacementKind{config.PlaceInterleave, config.PlaceFirstTouch,
			config.PlaceRegionAware} {
			cfg := config.OptimizedMCM()
			cfg.Scheduler, cfg.Placement = sched, place
			if cfg.Validate() != nil {
				continue
			}
			for _, spec := range specs {
				m, err := New(cfg.Clone())
				if err != nil {
					t.Fatal(err)
				}
				m.spec = spec
				m.setupPlacement()
				pm := StaticPageMap(cfg, spec)
				lpp := m.amap.LinesPerPage()
				var homed uint64
				for page, home := range pm.Homes {
					if home < 0 {
						continue
					}
					homed++
					line := uint64(page) * lpp
					if !spec.LinearInit {
						m.amap.Partition(line, (home+1)%cfg.Modules)
					}
					if owner, ok := m.amap.PageOwner(line); !ok || owner != home {
						t.Fatalf("%v/%v %s: page %d owned by %d (bound %v), StaticPageMap homes it on %d",
							sched, place, spec.Name, page, owner, ok, home)
					}
				}
				prebound, regionBound := homed, uint64(0)
				if !spec.LinearInit {
					prebound, regionBound = 0, homed
				}
				if got := m.amap.Prebinds(); got != prebound {
					t.Errorf("%v/%v %s: %d pages pre-bound, want %d", sched, place, spec.Name, got, prebound)
				}
				if got := m.amap.RegionBinds(); got != regionBound {
					t.Errorf("%v/%v %s: %d pages bound by the binder, want %d", sched, place, spec.Name, got, regionBound)
				}
			}
		}
	}
}
