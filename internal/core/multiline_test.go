package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mcmgpu/internal/config"
	"mcmgpu/internal/workload"
)

// multiLineResultsDigest is the SHA-256 of the JSON results of
// multiLineCells, generated when each op's lines were still drawn all at
// once when its warp stepped.
const multiLineResultsDigest = "b4bbc923200d058141be39ed812e49acfc1c36f6dee678aa741b85cffbd76ba7"

// TestMultiLineResultsDigest runs kernels whose ops touch 5 to 8 lines on
// the baseline and optimized machines and requires their results to hash
// to the digest they had when it was generated. No application issues
// more than 2 lines per op, so the golden tables cannot see the machine
// issue a lane past the second out of turn, such as a store line skipped or
// repeated when a full store buffer parks the warp mid-op; these results
// can. TestStreamOrderDigest pins the streams themselves.
func TestMultiLineResultsDigest(t *testing.T) {
	specs := []*workload.Spec{
		probeSpec(func(s *workload.Spec) {
			s.Name, s.Pattern, s.CTAs, s.WarpsPerCTA, s.MemOpsPerWarp = "probe-8line-stores", workload.PatIrregular, 32, 16, 8
			s.LinesPerOp, s.WriteFraction, s.ReuseProb = 8, 0.7, 0.3
			s.RandomFraction, s.ScatterLines, s.SharedLines = 0.5, 1024, 256
		}),
		probeSpec(func(s *workload.Spec) {
			s.Name, s.Pattern, s.CTAs, s.LinesPerOp, s.WriteFraction = "probe-7line-loads", workload.PatIrregular, 128, 7, 0.2
			s.RandomFraction, s.ReuseProb = 0.4, 0.5
		}),
		probeSpec(func(s *workload.Spec) {
			s.Name, s.Pattern, s.CTAs, s.WarpsPerCTA, s.LinesPerOp, s.WriteFraction = "probe-5line-stencil", workload.PatStencil, 64, 8, 5, 0.5
			s.NeighborFraction, s.ReuseProb = 0.3, 0.2
		}),
	}
	h := sha256.New()
	for _, cfg := range []*config.Config{config.BaselineMCM(), config.OptimizedMCM()} {
		for _, spec := range specs {
			h.Write([]byte(resultJSON(t, mustRun(t, cfg.Clone(), spec))))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != multiLineResultsDigest {
		t.Fatalf("multi-line results digest %s, want %s", got, multiLineResultsDigest)
	}
}
