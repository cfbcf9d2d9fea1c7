package core

import (
	"testing"

	"mcmgpu/internal/config"
)

// BenchmarkMachineNew measures building a machine cold, as the first cell
// of a process does: the per-SM L1s, the L2 slices and the event queue
// dominate it. Its machines never run, so they never hand storage back to
// the spare stack, and after the first iteration every New allocates
// afresh.
func BenchmarkMachineNew(b *testing.B) {
	for _, cfg := range []*config.Config{config.BaselineMCM(), config.OptimizedMCM()} {
		b.Run(cfg.Name, func(b *testing.B) {
			emptySpares()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg); err != nil {
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
				m, err := New(cfg.Clone())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.RunWith(spec, RunOptions{}); err != nil {
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
