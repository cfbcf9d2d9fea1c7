package core

import (
	"reflect"
	"testing"

	"mcmgpu/internal/config"
	"mcmgpu/internal/cta"
	"mcmgpu/internal/workload"
)

// launch is one CTA of a first wave and the SM it landed on.
type launch struct{ cta, sm int }

// slotFill is the fill FirstWave replaced: pass over the SMs, asking the
// scheduler for every SM with a free slot, until a pass launches nothing.
// FirstWave must launch exactly what it launches.
func slotFill(cfg *config.Config, spec *workload.Spec) []launch {
	sched := cta.New(cfg, KernelGrid(spec))
	held := make([]int, cfg.TotalSMs())
	var out []launch
	for launched := true; launched; {
		launched = false
		for s := range held {
			if held[s] == cfg.CTAsPerSM(spec.WarpsPerCTA) {
				continue
			}
			if idx := sched.Next(smModule(cfg, s)); idx >= 0 {
				held[s]++
				out = append(out, launch{idx, s})
				launched = true
			}
		}
	}
	return out
}

// TestFirstWaveFill pins the fill every kernel starts from, over the suite,
// the dense pair and a probe with more CTAs than the machine has slots: no
// SM holds more than CTAsPerSM, no CTA launches twice, every CTA lands in
// its module's share of the layout, and the wave holds min(CTAs, capacity)
// CTAs. SM 0 holds every TotalSMs-th CTA under the centralized scheduler
// and every SMsPerModule-th under the distributed one.
func TestFirstWaveFill(t *testing.T) {
	specs := append(workload.Suite(), workload.Dense()...)
	specs = append(specs, probeSpec(func(s *workload.Spec) { s.CTAs, s.WarpsPerCTA = 5000, 16 }))
	for _, cfg := range []*config.Config{
		config.BaselineMCM(), config.OptimizedMCM(), config.TiledRegionMCM(), config.OptimizedMCM16(),
		config.WithScheduler(config.BaselineMCM(), config.SchedDynamic),
	} {
		for _, spec := range specs {
			perSM := cfg.CTAsPerSM(spec.WarpsPerCTA)
			var got []launch
			sched, err := FirstWave(cfg, spec, func(c, s int) { got = append(got, launch{c, s}) })
			if err != nil {
				t.Fatalf("%s on %s: %v", spec.Name, cfg.Name, err)
			}
			if want := slotFill(cfg, spec); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s: FirstWave launched %d CTAs, the slot-driven fill %d, or in another order",
					spec.Name, cfg.Name, len(got), len(want))
			}
			if len(got) != min(spec.CTAs, cfg.TotalSMs()*perSM) {
				t.Errorf("%s on %s: %d resident CTAs, want min(%d CTAs, %d slots)",
					spec.Name, cfg.Name, len(got), spec.CTAs, cfg.TotalSMs()*perSM)
			}
			if left := sched.Remaining(); left != spec.CTAs-len(got) {
				t.Errorf("%s on %s: scheduler holds %d CTAs after the wave, want %d", spec.Name, cfg.Name, left, spec.CTAs-len(got))
			}
			layout, _ := sched.(cta.Layout)
			held := make([]int, cfg.TotalSMs())
			seen := make([]bool, spec.CTAs)
			var sm0 []int
			for _, l := range got {
				if held[l.sm]++; held[l.sm] > perSM {
					t.Fatalf("%s on %s: SM %d holds more than %d CTAs", spec.Name, cfg.Name, l.sm, perSM)
				}
				if seen[l.cta] {
					t.Fatalf("%s on %s: CTA %d launched twice", spec.Name, cfg.Name, l.cta)
				}
				seen[l.cta] = true
				if layout != nil && layout.Module(l.cta) != smModule(cfg, l.sm) {
					t.Fatalf("%s on %s: CTA %d of module %d launched on SM %d of module %d",
						spec.Name, cfg.Name, l.cta, layout.Module(l.cta), l.sm, smModule(cfg, l.sm))
				}
				if l.sm == 0 {
					sm0 = append(sm0, l.cta)
				}
			}
			// SM 0 draws from the global cursor, or from module 0's chunk,
			// the first ceil(CTAs/Modules) CTAs.
			var stride, limit int
			switch cfg.Scheduler {
			case config.SchedCentralized:
				stride, limit = cfg.TotalSMs(), spec.CTAs
			case config.SchedDistributed:
				stride, limit = cfg.SMsPerModule, (spec.CTAs+cfg.Modules-1)/cfg.Modules
			default:
				continue
			}
			var want []int
			for j := 0; j < perSM && j*stride < limit; j++ {
				want = append(want, j*stride)
			}
			if !reflect.DeepEqual(sm0, want) {
				t.Errorf("%s on %s: SM 0 holds CTAs %v, want %v", spec.Name, cfg.Name, sm0, want)
			}
		}
	}
}

// TestFirstWaveRefusesWideCTA: a CTA with more warps than an SM holds can
// never launch, so the fill refuses it before building a scheduler.
func TestFirstWaveRefusesWideCTA(t *testing.T) {
	cfg := config.BaselineMCM()
	spec := probeSpec(func(s *workload.Spec) { s.WarpsPerCTA = cfg.WarpsPerSM + 1 })
	sched, err := FirstWave(cfg, spec, func(int, int) { t.Fatal("launched a CTA wider than the SM") })
	if err == nil || sched != nil {
		t.Fatalf("FirstWave = (%v, %v), want a refusal", sched, err)
	}
	if want := "core: CTA needs 65 warps, SM holds 64"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}
