package core

import (
	"testing"

	"mcmgpu/internal/config"
)

// BenchmarkMachineNew measures New alone: validating the config and
// building what it alone sizes, the NoC, the page map and the energy
// meter. What a run needs, New leaves to RunWith (see BenchmarkColdCell).
func BenchmarkMachineNew(b *testing.B) {
	for _, cfg := range []*config.Config{config.BaselineMCM(), config.OptimizedMCM()} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdCell measures one cold cell, New plus RunWith of NN-Conv at
// scale 0.05 with the spare stack empty, as the first cell of a process
// runs: it builds the per-SM L1s, the L2 slices, the component records and
// the event queue that BenchmarkWarmCell reuses.
func BenchmarkColdCell(b *testing.B) {
	spec := suiteCell(b, "NN-Conv", 0.05)
	for _, cfg := range []*config.Config{config.BaselineMCM(), config.OptimizedMCM()} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				emptySpares()
				if err := runCell(cfg, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmCell measures one warm cell, New plus RunWith of NN-Conv at
// scale 0.05, as every cell after the first of a multi-cell process runs:
// on the storage the previous cell handed back. It allocates only what does
// not scale with the SMs (see TestWarmCellAllocBudget).
func BenchmarkWarmCell(b *testing.B) {
	spec := suiteCell(b, "NN-Conv", 0.05)
	for _, cfg := range []*config.Config{config.BaselineMCM(), config.OptimizedMCM()} {
		b.Run(cfg.Name, func(b *testing.B) {
			cell := func() {
				if err := runCell(cfg, spec); err != nil {
					b.Fatal(err)
				}
			}
			cell() // warm the spare stack for this geometry
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cell()
			}
		})
	}
}
