package workload

// AccessProfile is the closed-form summary of a spec's access stream that
// the analytic estimator (internal/analytic) consumes: how much work one
// kernel launch performs and where its line accesses land. It holds only
// what the spec does not state directly; the estimator reads the rest from
// the spec. The region geometry comes from the helpers genBase calls, which
// keeps the estimator and the event engine reading one description of the
// workload instead of two.
type AccessProfile struct {
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
	NeighborWindowLines uint64 // the halo edge window (see haloWindow)
	RowPanelWindow      uint64 // panel lines a kernel's CTAs can reach (see Spec.PanelWindows)
	ColPanelWindow      uint64

	// Own-region walk structure: the effective stride between consecutive
	// ops (1 for sequential patterns) and, for PatComputeTile, the tile the
	// warp re-walks (0 otherwise).
	StrideLines uint64
	TileLines   uint64
}

// Profile derives the spec's access profile. The spec must be valid.
func (s *Spec) Profile() AccessProfile {
	var p AccessProfile
	memOpsPerKernel := float64(s.TotalMemOps()) / float64(s.KernelIters)
	p.LineAccesses = memOpsPerKernel * float64(s.LinesPerOp)
	p.MeanOpsPerWarp = memOpsPerKernel / float64(s.TotalWarps())

	_, _, _, perCTA := s.Regions()
	p.OwnRegionLines = perCTA
	p.NeighborWindowLines = haloWindow(perCTA)
	p.RowPanelWindow, p.ColPanelWindow = s.PanelWindows()

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
		p.StrideLines = s.stride()
	case PatComputeTile:
		p.TileLines = computeTile(perCTA)
	}
	return p
}

// haloWindow returns how many lines at the edge of a neighbor's region of
// regionLen lines the halo accesses touch.
func haloWindow(regionLen uint64) uint64 { return max(1, regionLen/8) }

// computeTile returns the tile a PatComputeTile warp re-walks within its
// CTA's region of regionLen lines: an eighth of it (strong reuse).
func computeTile(regionLen uint64) uint64 { return max(1, regionLen/8) }

// skewStep returns how far apart the k-loop skew starts the walks of
// neighboring CTAs along a PatGEMM2D panel of panelLines lines that n CTAs
// share.
func skewStep(panelLines uint64, n int) uint64 { return max(1, panelLines/uint64(n)) }

// stride returns the line stride of a PatStrided own-region walk.
func (s *Spec) stride() uint64 {
	if s.Stride == 0 {
		return 1
	}
	return s.Stride
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
