package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcmgpu/internal/config"
	"mcmgpu/internal/workload"
)

// TestRandomMachineWorkloadProperty drives randomly drawn (but valid)
// machine configurations and workload shapes, checking the invariants that
// must hold for every run:
//
//   - the run terminates and executes exactly the specified work,
//   - byte counters are consistent (no inter-module traffic on one module,
//     wire bytes are a multiple of nothing but nonzero when remote traffic
//     exists),
//   - the local fraction is 1 exactly when no inter-module bytes moved,
//   - identical inputs give identical outputs (determinism).
func TestRandomMachineWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		cfg := config.BaselineMCM()
		cfg.Modules = []int{1, 2, 4}[rng.Intn(3)]
		cfg.SMsPerModule = []int{8, 16, 32}[rng.Intn(3)]
		cfg.PartitionsPerModule = []int{1, 2}[rng.Intn(2)]
		cfg.WarpsPerSM = []int{16, 32, 64}[rng.Intn(3)]
		if cfg.Modules == 1 {
			cfg.Topology = config.TopoNone
		} else if rng.Intn(2) == 0 {
			cfg.Topology = config.TopoCrossbar
		}
		cfg.Link.GBps = []float64{128, 768, 3072}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			cfg = config.WithL15(cfg, []int{4, 8, 16}[rng.Intn(3)]*config.MB,
				[]config.AllocPolicy{config.AllocAll, config.AllocRemoteOnly}[rng.Intn(2)])
		}
		if rng.Intn(2) == 0 {
			cfg.Scheduler = config.SchedDistributed
			cfg.CTAChunksPerModule = 1 + rng.Intn(3)
		}
		if rng.Intn(2) == 0 {
			cfg.Placement = config.PlaceFirstTouch
		}
		if err := cfg.Validate(); err != nil {
			t.Logf("generated invalid config: %v", err)
			return false
		}

		spec := &workload.Spec{
			Name:     "prop",
			Category: workload.MemoryIntensive,
			Pattern: []workload.Pattern{
				workload.PatStreaming, workload.PatStrided, workload.PatStencil,
				workload.PatIrregular, workload.PatHotRegion, workload.PatComputeTile,
			}[rng.Intn(6)],
			CTAs:             8 + rng.Intn(64),
			WarpsPerCTA:      1 + rng.Intn(4),
			MemOpsPerWarp:    1 + rng.Intn(16),
			ComputePerMem:    rng.Intn(32),
			KernelIters:      1 + rng.Intn(2),
			FootprintLines:   4096 + uint64(rng.Intn(16384)),
			WriteFraction:    float64(rng.Intn(10)) / 10,
			LinesPerOp:       1 + rng.Intn(4),
			SharedFraction:   float64(rng.Intn(4)) / 10,
			SharedLines:      uint64(rng.Intn(512)),
			NeighborFraction: float64(rng.Intn(3)) / 10,
			RandomFraction:   float64(rng.Intn(3)) / 10,
			ScatterLines:     uint64(rng.Intn(512)),
			ReuseProb:        float64(rng.Intn(3)) / 10,
			Stride:           uint64(rng.Intn(8)),
			Seed:             uint64(seed),
		}
		if spec.SharedFraction > 0 && spec.SharedLines == 0 {
			spec.SharedLines = 64
		}
		if err := spec.Validate(); err != nil {
			// Some random draws are inconsistent (tiny footprints); skip.
			return true
		}

		run := func() *Result {
			m, err := New(cfg.Clone())
			if err != nil {
				t.Logf("New: %v", err)
				return nil
			}
			res, err := m.RunWith(spec, RunOptions{})
			if err != nil {
				t.Logf("Run: %v", err)
				return nil
			}
			return res
		}
		a := run()
		if a == nil {
			return false
		}
		if a.MemOps != spec.TotalMemOps() {
			t.Logf("MemOps %d != %d", a.MemOps, spec.TotalMemOps())
			return false
		}
		if a.Cycles == 0 {
			return false
		}
		if cfg.Modules == 1 && a.InterModuleBytes != 0 {
			t.Logf("single module moved %d inter-module bytes", a.InterModuleBytes)
			return false
		}
		if (a.LocalFraction == 1) != (a.InterModuleBytes == 0) {
			t.Logf("local=%v but interModuleBytes=%d", a.LocalFraction, a.InterModuleBytes)
			return false
		}
		b := run()
		if b == nil || a.Cycles != b.Cycles || a.DRAMBytes != b.DRAMBytes ||
			a.InterModuleBytes != b.InterModuleBytes {
			t.Logf("nondeterministic run")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
