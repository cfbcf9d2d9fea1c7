package workload

// AccessProfile is the closed-form summary of a spec's access stream that
// the analytic estimator (internal/analytic) consumes: how much work one
// kernel launch performs and where its line accesses land, derived from the
// same parameters that drive Stream. Keeping the derivation here, next to
// genBase, is what keeps the estimator and the event engine reading one
// description of the workload instead of two.
type AccessProfile struct {
	// MemOpsPerKernel is warp memory operations per kernel launch
	// (imbalance-adjusted mean across CTAs).
	MemOpsPerKernel float64
	// LineAccesses is cache-line accesses per kernel launch.
	LineAccesses float64
	// MeanOpsPerWarp is the imbalance-adjusted mean of per-warp ops in one
	// kernel.
	MeanOpsPerWarp float64

	// Class shares of line accesses, summing to 1: the CTA's own region,
	// the neighbor halo, the shared hot region, the scatter region,
	// uniform accesses over the whole footprint, and the row/column panel
	// streams of 2-D grid workloads. Lane divergence (PatIrregular with
	// LinesPerOp > 1) is folded in: diverged lanes scatter, so their lines
	// count toward Scatter/Uniform rather than the base line's class.
	Own, Neighbor, Shared, Scatter, Uniform float64
	RowPanel, ColPanel                      float64

	// Region geometry, in lines.
	OwnRegionLines      uint64 // one CTA's partition of the footprint
	NeighborWindowLines uint64 // the halo edge window (regionLen/8)
	SharedRegionLines   uint64
	ScatterRegionLines  uint64
	FootprintLines      uint64
	RowPanelLines       uint64 // one grid row's shared panel
	ColPanelLines       uint64 // one grid column's shared panel
	RowPanelWindow      uint64 // panel lines a kernel's CTAs can reach (see Spec.PanelWindows)
	ColPanelWindow      uint64

	// 2-D grid shape (zero for 1-D workloads).
	GridW, GridH int

	// Own-region walk structure: the effective stride between consecutive
	// ops (1 for sequential patterns) and, for PatComputeTile, the tile the
	// warp re-walks (0 otherwise).
	StrideLines uint64
	TileLines   uint64

	ReuseProb     float64
	WriteFraction float64
	LinesPerOp    int
	KernelIters   int
}

// Profile derives the spec's access profile. The spec must be valid.
func (s *Spec) Profile() AccessProfile {
	p := AccessProfile{
		ReuseProb:      s.ReuseProb,
		WriteFraction:  s.WriteFraction,
		LinesPerOp:     s.LinesPerOp,
		KernelIters:    s.KernelIters,
		FootprintLines: s.FootprintLines,
	}
	p.MemOpsPerKernel = float64(s.TotalMemOps()) / float64(s.KernelIters)
	p.LineAccesses = p.MemOpsPerKernel * float64(s.LinesPerOp)
	p.MeanOpsPerWarp = p.MemOpsPerKernel / float64(s.TotalWarps())

	// Region geometry mirrors Stream.Init.
	_, _, _, perCTA := s.Regions()
	p.OwnRegionLines = perCTA
	p.NeighborWindowLines = maxU64(1, perCTA/8)
	p.SharedRegionLines = s.SharedLines
	p.ScatterRegionLines = s.ScatterLines
	p.RowPanelLines = s.RowPanelLines
	p.ColPanelLines = s.ColPanelLines
	p.RowPanelWindow, p.ColPanelWindow = s.PanelWindows()
	p.GridW, p.GridH = s.GridW, s.GridH

	// Base-line class mix mirrors genBase's roll order. A SharedFraction
	// with no shared region falls through to the neighbor branch, exactly
	// as the stream generator's guard makes it do.
	sh, nb, rnd := s.SharedFraction, s.NeighborFraction, s.RandomFraction
	if s.SharedLines == 0 {
		nb += sh
		sh = 0
	}
	rp, cp := s.RowPanelFraction, s.ColPanelFraction
	own := 1 - sh - nb - rnd - rp - cp
	if own < 0 {
		own = 0
	}
	var sc, uni float64
	if s.ScatterLines > 0 {
		sc = rnd
	} else {
		uni = rnd
	}

	// Lane divergence: for PatIrregular only the base line follows the
	// class mix; the remaining LinesPerOp-1 lines scatter (into the scatter
	// region when one exists, over the whole footprint otherwise).
	if s.Pattern == PatIrregular && s.LinesPerOp > 1 {
		w := 1 / float64(s.LinesPerOp)
		div := 1 - w
		sh, nb, own, sc, uni, rp, cp = sh*w, nb*w, own*w, sc*w, uni*w, rp*w, cp*w
		if s.ScatterLines > 0 {
			sc += div
		} else {
			uni += div
		}
	}
	p.Shared, p.Neighbor, p.Own, p.Scatter, p.Uniform = sh, nb, own, sc, uni
	p.RowPanel, p.ColPanel = rp, cp

	// Own-region walk structure.
	p.StrideLines = 1
	switch s.Pattern {
	case PatStrided:
		if s.Stride > 0 {
			p.StrideLines = s.Stride
		}
	case PatComputeTile:
		p.TileLines = maxU64(1, perCTA/8)
	}
	return p
}

// ChunkImbalance returns the load skew a contiguous chunk partition of the
// CTA index space suffers under this spec's work-imbalance gradient: the
// busiest chunk's memory operations relative to the mean chunk, >= 1. It is
// the slowdown factor of a distributed (chunked) scheduler with no
// stealing, since modules finish when their own chunk drains.
func (s *Spec) ChunkImbalance(chunks int) float64 {
	if chunks <= 1 || s.WorkImbalance <= 0 || s.CTAs <= 1 {
		return 1
	}
	if chunks > s.CTAs {
		chunks = s.CTAs
	}
	per := (s.CTAs + chunks - 1) / chunks
	var total, maxChunk float64
	for c := 0; c < chunks; c++ {
		var ops float64
		for i := c * per; i < (c+1)*per && i < s.CTAs; i++ {
			ops += float64(s.OpsForCTA(i))
		}
		total += ops
		if ops > maxChunk {
			maxChunk = ops
		}
	}
	if total == 0 {
		return 1
	}
	return maxChunk / (total / float64(chunks))
}
