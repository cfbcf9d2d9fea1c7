package core

import (
	"strings"
	"testing"

	"mcmgpu/internal/config"
	"mcmgpu/internal/workload"
)

// probeSpec returns a small deterministic workload for machine tests.
func probeSpec(mut func(*workload.Spec)) *workload.Spec {
	s := &workload.Spec{
		Name: "probe", Category: workload.MemoryIntensive, Pattern: workload.PatStreaming,
		CTAs: 256, WarpsPerCTA: 4, MemOpsPerWarp: 16, ComputePerMem: 4,
		KernelIters: 2, FootprintLines: 65536, LinesPerOp: 1, Seed: 42,
	}
	if mut != nil {
		mut(s)
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func mustRun(t *testing.T, cfg *config.Config, spec *workload.Spec) *Result {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunWith(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunCompletesAllWork(t *testing.T) {
	spec := probeSpec(nil)
	res := mustRun(t, config.BaselineMCM(), spec)
	if res.MemOps != spec.TotalMemOps() {
		t.Errorf("MemOps = %d, want %d", res.MemOps, spec.TotalMemOps())
	}
	wantInstrs := spec.TotalMemOps() * uint64(spec.ComputePerMem+1)
	if res.WarpInstrs != wantInstrs {
		t.Errorf("WarpInstrs = %d, want %d", res.WarpInstrs, wantInstrs)
	}
	if res.Cycles == 0 {
		t.Errorf("zero cycles")
	}
	if res.LineReads+res.LineWrites != spec.TotalMemOps()*uint64(spec.LinesPerOp) {
		t.Errorf("line accesses = %d, want %d",
			res.LineReads+res.LineWrites, spec.TotalMemOps()*uint64(spec.LinesPerOp))
	}
}

func TestDeterminism(t *testing.T) {
	spec := probeSpec(func(s *workload.Spec) { s.WriteFraction = 0.3 })
	a := mustRun(t, config.BaselineMCM(), spec)
	b := mustRun(t, config.BaselineMCM(), spec)
	if a.Cycles != b.Cycles || a.InterModuleBytes != b.InterModuleBytes || a.DRAMBytes != b.DRAMBytes {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMachineIsSingleUse(t *testing.T) {
	m, err := New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunWith(probeSpec(nil), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunWith(probeSpec(nil), RunOptions{}); err == nil {
		t.Fatalf("second Run did not fail")
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	m, _ := New(config.BaselineMCM())
	bad := probeSpec(nil)
	bad.CTAs = 0
	if _, err := m.RunWith(bad, RunOptions{}); err == nil {
		t.Fatalf("invalid spec accepted")
	}
	m2, _ := New(config.BaselineMCM())
	wide := probeSpec(func(s *workload.Spec) { s.WarpsPerCTA = 128 })
	if _, err := m2.RunWith(wide, RunOptions{}); err == nil {
		t.Fatalf("CTA wider than an SM accepted")
	}
	// A shipped workload scaled past the footprint bound gets an error
	// naming the bound instead of a run.
	m3, _ := New(config.BaselineMCM())
	huge := suiteCell(t, "Stream", 4096)
	if _, err := m3.RunWith(huge, RunOptions{}); err == nil || !strings.Contains(err.Error(), "1073741824-line bound") {
		t.Fatalf("Stream at scale 4096 (%d lines): RunWith = %v, want the footprint-bound error", huge.FootprintLines, err)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.BaselineMCM()
	cfg.Modules = 0
	if _, err := New(cfg); err == nil {
		t.Fatalf("invalid config accepted")
	}
}

func TestMonolithicHasNoRemoteTraffic(t *testing.T) {
	res := mustRun(t, config.UnbuildableMonolithic(), probeSpec(nil))
	if res.InterModuleBytes != 0 {
		t.Errorf("monolithic moved %d inter-module bytes", res.InterModuleBytes)
	}
	if res.LocalFraction != 1 {
		t.Errorf("LocalFraction = %v, want 1", res.LocalFraction)
	}
	if res.EnergyPJ.Package != 0 || res.EnergyPJ.Board != 0 {
		t.Errorf("monolithic spent package/board energy: %+v", res.EnergyPJ)
	}
}

func TestInterleaveLocalFraction(t *testing.T) {
	// Fine-grain interleave homes 1/modules of traffic locally.
	res := mustRun(t, config.BaselineMCM(), probeSpec(nil))
	if res.LocalFraction < 0.2 || res.LocalFraction > 0.3 {
		t.Errorf("LocalFraction = %v, want ~0.25 under interleave", res.LocalFraction)
	}
	if res.InterModuleBytes == 0 {
		t.Errorf("no inter-module traffic under interleave")
	}
	if res.MappedPages != 0 {
		t.Errorf("interleave mapped %d pages", res.MappedPages)
	}
}

func TestFirstTouchPlusDSLocalizesStreaming(t *testing.T) {
	// A streaming workload under DS+FT keeps nearly all accesses local.
	cfg := config.WithPlacement(
		config.WithScheduler(config.BaselineMCM(), config.SchedDistributed),
		config.PlaceFirstTouch)
	res := mustRun(t, cfg, probeSpec(nil))
	if res.LocalFraction < 0.9 {
		t.Errorf("LocalFraction = %v, want > 0.9 with DS+FT on streaming", res.LocalFraction)
	}
	if res.MappedPages == 0 {
		t.Errorf("first touch mapped no pages")
	}
}

func TestFirstTouchUnderCentralizedIsWorseThanWithDS(t *testing.T) {
	// When pages span multiple consecutive CTAs' regions, FT alone
	// (centralized scheduling) scatters those CTAs across GPMs, so a page
	// bound by one CTA is remote for its neighbors. Distributed scheduling
	// co-locates them; this synergy is the crux of Section 5.3.
	shared := func(s *workload.Spec) {
		// 16-line regions inside 32-line pages: every page is shared by
		// two consecutive CTAs.
		s.FootprintLines = 4096
	}
	ft := config.WithPlacement(config.BaselineMCM(), config.PlaceFirstTouch)
	ftds := config.WithPlacement(
		config.WithScheduler(config.BaselineMCM(), config.SchedDistributed),
		config.PlaceFirstTouch)
	a := mustRun(t, ft, probeSpec(shared))
	b := mustRun(t, ftds, probeSpec(shared))
	if b.LocalFraction <= a.LocalFraction {
		t.Errorf("DS+FT local %v should beat FT-alone local %v", b.LocalFraction, a.LocalFraction)
	}
}

func TestL15RemoteOnlyCachesOnlyRemote(t *testing.T) {
	cfg := config.WithL15(config.BaselineMCM(), 16*config.MB, config.AllocRemoteOnly)
	spec := probeSpec(func(s *workload.Spec) {
		// Scattered reuse over a footprint larger than one L1 but smaller
		// than one L1.5 slice: per-SM L1s cannot absorb it, the module-side
		// cache can.
		s.Pattern = workload.PatIrregular
		s.RandomFraction = 1
		s.FootprintLines = 16384
		s.KernelIters = 1
		s.MemOpsPerWarp = 64
	})
	res := mustRun(t, cfg, spec)
	if res.L15HitRate <= 0 {
		t.Errorf("L1.5 hit rate = %v, want > 0", res.L15HitRate)
	}
	// The L1.5 reduces inter-GPM traffic vs the baseline.
	base := mustRun(t, config.BaselineMCM(), spec)
	if res.InterModuleBytes >= base.InterModuleBytes {
		t.Errorf("L1.5 did not cut traffic: %d vs %d", res.InterModuleBytes, base.InterModuleBytes)
	}
}

func TestLinkBandwidthMonotonicity(t *testing.T) {
	// More inter-GPM bandwidth never hurts a bandwidth-bound workload.
	spec := probeSpec(func(s *workload.Spec) { s.ComputePerMem = 2 })
	prev := uint64(0)
	for _, link := range []float64{384, 768, 3072} {
		res := mustRun(t, config.MCMWithLink(link), spec)
		if prev != 0 && res.Cycles > prev+prev/20 {
			t.Errorf("link %v GB/s slower (%d) than smaller link (%d)", link, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestWriteHeavyProducesDRAMTraffic(t *testing.T) {
	spec := probeSpec(func(s *workload.Spec) { s.WriteFraction = 0.9 })
	res := mustRun(t, config.BaselineMCM(), spec)
	if res.LineWrites == 0 {
		t.Fatalf("no writes executed")
	}
	if res.DRAMBytes == 0 {
		t.Fatalf("write-heavy run moved no DRAM bytes")
	}
}

func TestEnergyAccounting(t *testing.T) {
	res := mustRun(t, config.BaselineMCM(), probeSpec(nil))
	e := res.EnergyPJ
	if e.Chip <= 0 || e.Package <= 0 || e.DRAM <= 0 {
		t.Errorf("missing energy components: %+v", e)
	}
	if e.Board != 0 {
		t.Errorf("on-package machine spent board energy")
	}
	sum := e.Chip + e.Package + e.Board + e.DRAM
	if diff := e.Total - sum; diff > 1 || diff < -1 {
		t.Errorf("Total %v != sum %v", e.Total, sum)
	}
}

func TestMultiGPUUsesBoardEnergy(t *testing.T) {
	res := mustRun(t, config.MultiGPUBaseline(), probeSpec(func(s *workload.Spec) {
		// Irregular traffic so some crosses the board link even with FT.
		s.Pattern = workload.PatIrregular
		s.RandomFraction = 0.8
	}))
	if res.EnergyPJ.Board <= 0 {
		t.Errorf("multi-GPU spent no board energy")
	}
	if res.EnergyPJ.Package != 0 {
		t.Errorf("multi-GPU spent package energy: %+v", res.EnergyPJ)
	}
}

func TestLimitedParallelismDoesNotScale(t *testing.T) {
	spec := probeSpec(func(s *workload.Spec) {
		s.CTAs = 64
		s.WarpsPerCTA = 2
		s.MemOpsPerWarp = 64
		s.FootprintLines = 32768
	})
	small := mustRun(t, config.MustMonolithic(128), spec)
	big := mustRun(t, config.MustMonolithic(256), spec)
	gain := float64(small.Cycles) / float64(big.Cycles)
	if gain > 1.3 {
		t.Errorf("64-CTA workload sped up %.2fx from 128->256 SMs; should plateau", gain)
	}
}

func TestHighParallelismScales(t *testing.T) {
	spec := probeSpec(func(s *workload.Spec) {
		s.CTAs = 2048
		s.ComputePerMem = 24 // compute-bound so SM count dominates
	})
	small := mustRun(t, config.MustMonolithic(64), spec)
	big := mustRun(t, config.MustMonolithic(256), spec)
	gain := float64(small.Cycles) / float64(big.Cycles)
	if gain < 2.5 {
		t.Errorf("high-parallelism compute-bound workload gained only %.2fx from 64->256 SMs", gain)
	}
}

func TestSpeedupOverPanicsAcrossWorkloads(t *testing.T) {
	a := mustRun(t, config.BaselineMCM(), probeSpec(nil))
	other := probeSpec(func(s *workload.Spec) { s.Name = "other" })
	b := mustRun(t, config.BaselineMCM(), other)
	defer func() {
		if recover() == nil {
			t.Fatalf("cross-workload speedup did not panic")
		}
	}()
	a.SpeedupOver(b)
}

func TestResultString(t *testing.T) {
	res := mustRun(t, config.BaselineMCM(), probeSpec(nil))
	if res.String() == "" || res.IPC() <= 0 {
		t.Fatalf("bad result summary: %q", res.String())
	}
}

func TestDistributedSchedulerIdlesFinishedModules(t *testing.T) {
	// With CTAs not divisible evenly, DS still completes every CTA.
	cfg := config.WithScheduler(config.BaselineMCM(), config.SchedDistributed)
	spec := probeSpec(func(s *workload.Spec) { s.CTAs = 1023 })
	res := mustRun(t, cfg, spec)
	if res.MemOps != spec.TotalMemOps() {
		t.Errorf("DS run lost work: %d vs %d", res.MemOps, spec.TotalMemOps())
	}
}
