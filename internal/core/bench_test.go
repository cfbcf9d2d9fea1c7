package core

import (
	"testing"

	"mcmgpu/internal/config"
)

// BenchmarkMachineNew measures building a machine, which every simulated
// cell pays before its first event: the per-SM L1s, the L2 slices and the
// event queue dominate it.
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
