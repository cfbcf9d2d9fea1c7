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
				var homed int
				for _, home := range pm.Homes {
					if home >= 0 {
						homed++
					}
				}
				prebound := 0
				if spec.LinearInit {
					prebound = homed
				}
				if got := m.amap.MappedPages(); got != prebound {
					t.Errorf("%v/%v %s: %d pages pre-bound, want %d", sched, place, spec.Name, got, prebound)
				}
				// Touch each homed page from a module other than its home.
				// First touch would bind the page to that module, so only a
				// pre-bound or binder-homed page reads back its home.
				for page, home := range pm.Homes {
					if home < 0 {
						continue
					}
					line := uint64(page) * uint64(cfg.LinesPerPage())
					if owner := m.amap.Partition(line, (home+1)%cfg.Modules) / cfg.PartitionsPerModule; owner != home {
						t.Fatalf("%v/%v %s: page %d owned by %d, StaticPageMap homes it on %d",
							sched, place, spec.Name, page, owner, home)
					}
				}
				if got := m.amap.MappedPages(); got != homed {
					t.Errorf("%v/%v %s: %d pages bound, want the %d homed pages", sched, place, spec.Name, got, homed)
				}
			}
		}
	}
}
