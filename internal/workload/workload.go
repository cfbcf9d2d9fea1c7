// Package workload synthesizes the 48-application suite the paper evaluates
// (Section 4): 17 memory-intensive and 16 compute-intensive high-parallelism
// applications plus 15 limited-parallelism applications, drawn from CORAL,
// Lonestar, Rodinia and NVIDIA in-house benchmarks.
//
// The original CUDA applications and the traces the authors ran are not
// available, so each application is modeled as a parameterized synthetic
// kernel. The parameters capture exactly the properties the paper's three
// optimizations exploit: available parallelism (CTA and warp counts),
// memory intensity (compute-to-memory ratio and coalescing), working-set
// size relative to the cache hierarchy, inter-CTA spatial locality
// (neighbor sharing between consecutive CTA indices), temporal reuse, and
// cross-kernel repetition from convergence loops. Access streams are
// deterministic functions of (application, CTA, warp, op), so a CTA touches
// the same pages on every kernel launch — the property first-touch
// placement and distributed scheduling exploit together (Figure 12).
package workload

import (
	"fmt"
	"math"

	"mcmgpu/internal/config"
)

// Category classifies applications as the paper does.
type Category int

const (
	// MemoryIntensive applications lose >20% performance when memory
	// bandwidth is halved (Section 4) and have enough parallelism to fill a
	// 256-SM GPU.
	MemoryIntensive Category = iota
	// ComputeIntensive applications scale to 256 SMs but are bound by
	// compute throughput rather than memory bandwidth.
	ComputeIntensive
	// LimitedParallelism applications cannot fill a 256-SM GPU
	// (parallel efficiency < 25%).
	LimitedParallelism
)

// String returns the category name used in the paper's figures.
func (c Category) String() string {
	switch c {
	case MemoryIntensive:
		return "M-Intensive"
	case ComputeIntensive:
		return "C-Intensive"
	case LimitedParallelism:
		return "Lim-Parallel"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Pattern selects the synthetic memory access pattern.
type Pattern int

const (
	// PatStreaming touches the CTA's own region sequentially with perfect
	// coalescing (STREAM, MiniAMR).
	PatStreaming Pattern = iota
	// PatStrided walks the CTA's region with a fixed stride (SRAD, NN-Conv).
	PatStrided
	// PatStencil touches the CTA's region sequentially plus a halo in the
	// neighboring CTAs' regions (Lulesh, CoMD, CFD, Nekbone).
	PatStencil
	// PatIrregular scatters most accesses uniformly over the whole
	// footprint with poor coalescing (BFS, SSSP, MST, AMG).
	PatIrregular
	// PatHotRegion concentrates a fraction of accesses on a small shared
	// read-mostly region (Kmeans centroids, XSBench cross-section tables).
	PatHotRegion
	// PatComputeTile re-walks a small per-CTA tile with heavy compute
	// between accesses (GEMM-like compute-intensive kernels).
	PatComputeTile
	// PatGEMM2D is a tiled dense GEMM: CTA (i, j) computes one output tile
	// of C, streaming the A panel its grid row shares and the B panel its
	// grid column shares. Reuse neighbors are both (i±1, j) and (i, j±1),
	// the 2-D structure that 1-D contiguous CTA chunking cannot keep on
	// one GPM.
	PatGEMM2D
	// PatAttention is a flash-style attention kernel: CTA (head, block)
	// streams its head's K/V panel against a per-CTA query block, with
	// heads (grid columns) as the natural placement grain.
	PatAttention
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case PatStreaming:
		return "streaming"
	case PatStrided:
		return "strided"
	case PatStencil:
		return "stencil"
	case PatIrregular:
		return "irregular"
	case PatHotRegion:
		return "hot-region"
	case PatComputeTile:
		return "compute-tile"
	case PatGEMM2D:
		return "gemm-2d"
	case PatAttention:
		return "attention"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// MaxFootprintLines bounds Spec.FootprintLines. Every line address a stream
// generates lies below the footprint, so the bound lets the stream and the
// page table hold line addresses in 32 bits, and the caches' 32-bit way
// entries hold every tag whatever the set count. A run whose last footprint
// line has a tag that fits 14 bits at every level takes 16-bit way entries
// instead (see cache.FitsNarrow); every shipped workload does. The largest
// shipped workload is 2,048 times smaller than the bound.
const MaxFootprintLines = 1 << 30

// maxMemOpsPerWarp bounds Spec.MemOpsPerWarp so that a CTA's op count after
// the work-imbalance skew, at most twice the nominal count, fits the
// stream's 32-bit counters.
const maxMemOpsPerWarp = math.MaxInt32 / 2

// Spec describes one synthetic application.
type Spec struct {
	Name     string
	Category Category
	Pattern  Pattern

	// Parallelism.
	CTAs        int // CTAs per kernel launch
	WarpsPerCTA int

	// Work per warp per kernel launch.
	MemOpsPerWarp int
	ComputePerMem int // warp compute instructions between memory ops
	KernelIters   int // convergence-loop launches of the kernel

	// Memory behavior. FootprintLines is the model working set in cache
	// lines; PaperFootprintMB records Table 4's footprint for reporting.
	FootprintLines   uint64
	PaperFootprintMB int
	WriteFraction    float64
	LinesPerOp       int     // distinct lines touched per warp memory op (coalescing)
	SharedFraction   float64 // accesses to the shared region
	SharedLines      uint64
	NeighborFraction float64 // accesses to the adjacent CTA's region
	RandomFraction   float64 // scattered accesses (see ScatterLines)
	// ScatterLines confines RandomFraction accesses to a dedicated region
	// (e.g. a graph algorithm's visited/distance arrays) instead of the
	// whole footprint; 0 scatters over everything. Keeping scatter traffic
	// out of the CTA-partitioned data prevents it from stealing first-touch
	// page bindings that belong to the owning CTA.
	ScatterLines uint64
	ReuseProb    float64 // chance of re-touching a recently used line
	Stride       uint64  // line stride for PatStrided (0 = 1)

	// 2-D grid structure (PatGEMM2D, PatAttention): CTA i computes output
	// tile (x, y) = (i%GridW, i/GridW). Both zero for 1-D workloads;
	// when set, GridW*GridH must equal CTAs.
	GridW, GridH int
	// Panel geometry: every grid row y shares a RowPanelLines panel (the
	// GEMM A panel) and every grid column x a ColPanelLines panel (the
	// GEMM B panel; the per-head K/V panel for attention). Panels live in
	// a reserved stretch of the footprint between the scatter region and
	// the per-CTA own regions.
	RowPanelLines uint64
	ColPanelLines uint64
	// RowPanelFraction and ColPanelFraction of accesses stream the CTA's
	// row and column panels.
	RowPanelFraction float64
	ColPanelFraction float64
	// LinearInit marks workloads whose footprint is written by a linear
	// streaming sweep before the first compute kernel — a matrix fill or
	// QKV projection whose CTA j initializes the j-th contiguous slice of
	// memory. Under first-touch placement that sweep, not the compute
	// kernel, decides page homes: the simulator pre-binds every footprint
	// page to the module the init sweep's CTA layout gives it. This is the
	// init/access-layout mismatch that makes page-granularity first touch
	// misplace tiled-GEMM panels (the pages of a B panel belong to the
	// init sweep's linear chunks, not to the panel's consumers).
	LinearInit bool

	// WorkImbalance skews per-CTA work: CTA i executes MemOpsPerWarp scaled
	// by a deterministic factor in [1-W, 1+W]. The paper observes two
	// workloads whose unequal CTAs defeat coarse-grain distributed
	// scheduling (Section 5.4); this knob reproduces them and motivates the
	// dynamic (stealing) scheduler extension.
	WorkImbalance float64

	Seed uint64
}

// Validate reports the first inconsistency in the spec.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: empty name")
	case s.CTAs <= 0:
		return fmt.Errorf("workload %s: CTAs = %d", s.Name, s.CTAs)
	case s.WarpsPerCTA <= 0 || s.WarpsPerCTA > math.MaxInt32:
		return fmt.Errorf("workload %s: WarpsPerCTA = %d (max %d)", s.Name, s.WarpsPerCTA, math.MaxInt32)
	case s.MemOpsPerWarp <= 0 || s.MemOpsPerWarp > maxMemOpsPerWarp:
		return fmt.Errorf("workload %s: MemOpsPerWarp = %d (max %d)", s.Name, s.MemOpsPerWarp, maxMemOpsPerWarp)
	case s.ComputePerMem < 0 || s.ComputePerMem > math.MaxInt32:
		return fmt.Errorf("workload %s: ComputePerMem = %d (max %d)", s.Name, s.ComputePerMem, math.MaxInt32)
	case s.KernelIters <= 0:
		return fmt.Errorf("workload %s: KernelIters = %d", s.Name, s.KernelIters)
	case s.LinesPerOp <= 0 || s.LinesPerOp > MaxLinesPerOp:
		return fmt.Errorf("workload %s: LinesPerOp = %d (max %d)", s.Name, s.LinesPerOp, MaxLinesPerOp)
	case s.FootprintLines > MaxFootprintLines:
		return fmt.Errorf("workload %s: footprint %d lines exceeds the %d-line bound", s.Name, s.FootprintLines, MaxFootprintLines)
	case s.FootprintLines < uint64(s.CTAs)+s.SharedLines+s.ScatterLines+s.PanelLines():
		return fmt.Errorf("workload %s: footprint %d lines too small for %d CTAs + %d shared + %d scatter + %d panel",
			s.Name, s.FootprintLines, s.CTAs, s.SharedLines, s.ScatterLines, s.PanelLines())
	case s.WriteFraction < 0 || s.WriteFraction > 1:
		return fmt.Errorf("workload %s: WriteFraction = %v", s.Name, s.WriteFraction)
	case s.SharedFraction+s.NeighborFraction+s.RandomFraction+s.RowPanelFraction+s.ColPanelFraction > 1:
		return fmt.Errorf("workload %s: fractions sum to %v > 1",
			s.Name, s.SharedFraction+s.NeighborFraction+s.RandomFraction+s.RowPanelFraction+s.ColPanelFraction)
	case s.WorkImbalance < 0 || s.WorkImbalance > 1:
		return fmt.Errorf("workload %s: WorkImbalance = %v", s.Name, s.WorkImbalance)
	case (s.GridW != 0) != (s.GridH != 0):
		return fmt.Errorf("workload %s: grid %dx%d: set both dimensions or neither", s.Name, s.GridW, s.GridH)
	case s.GridW < 0 || s.GridH < 0:
		return fmt.Errorf("workload %s: negative grid %dx%d", s.Name, s.GridW, s.GridH)
	case s.GridW > 0 && s.GridW*s.GridH != s.CTAs:
		return fmt.Errorf("workload %s: grid %dx%d does not cover %d CTAs", s.Name, s.GridW, s.GridH, s.CTAs)
	case (s.RowPanelLines > 0 || s.ColPanelLines > 0) && s.GridW == 0:
		return fmt.Errorf("workload %s: panel lines need a 2-D grid", s.Name)
	case s.RowPanelFraction < 0 || s.ColPanelFraction < 0:
		return fmt.Errorf("workload %s: negative panel fraction", s.Name)
	case s.RowPanelFraction > 0 && s.RowPanelLines == 0:
		return fmt.Errorf("workload %s: RowPanelFraction %v with no row panel", s.Name, s.RowPanelFraction)
	case s.ColPanelFraction > 0 && s.ColPanelLines == 0:
		return fmt.Errorf("workload %s: ColPanelFraction %v with no column panel", s.Name, s.ColPanelFraction)
	}
	return nil
}

// PanelLines returns the total lines the row and column panels reserve.
func (s *Spec) PanelLines() uint64 {
	return uint64(s.GridH)*s.RowPanelLines + uint64(s.GridW)*s.ColPanelLines
}

// Regions returns the line-address bases of the footprint layout —
// [shared][scatter][row panels][col panels][per-CTA own regions] — and the
// per-CTA own-region length. It is the single source of truth shared by the
// stream generator, the access profile, region-aware placement and the
// analytic estimator's page-home census.
func (s *Spec) Regions() (rowBase, colBase, ownBase, perCTA uint64) {
	rowBase = s.SharedLines + s.ScatterLines
	colBase = rowBase + uint64(s.GridH)*s.RowPanelLines
	ownBase = colBase + uint64(s.GridW)*s.ColPanelLines
	perCTA = (s.FootprintLines - ownBase) / uint64(s.CTAs)
	if perCTA == 0 {
		perCTA = 1
	}
	return rowBase, colBase, ownBase, perCTA
}

// PanelReach returns the panel lines one CTA's warps can reach in one
// kernel: their shared walk (seq = warp*ops + i) spans
// WarpsPerCTA*MemOpsPerWarp positions, plus the multi-line op spill.
func (s *Spec) PanelReach() uint64 {
	return uint64(s.WarpsPerCTA*s.MemOpsPerWarp) + uint64(s.LinesPerOp-1)
}

// PanelWindows returns the candidate line span one kernel's CTAs can touch
// within a row panel and a column panel: one CTA's PanelReach, widened by
// the stagger span when the GEMM k-loop skew staggers the walks of the CTAs
// along the panel. Both are capped at the panel size.
func (s *Spec) PanelWindows() (row, col uint64) {
	if s.GridW == 0 {
		return 0, 0
	}
	cand := s.PanelReach()
	row, col = min(cand, s.RowPanelLines), min(cand, s.ColPanelLines)
	if s.Pattern == PatGEMM2D {
		if s.GridW > 1 && s.RowPanelLines > 0 {
			skew := uint64(s.GridW-1) * skewStep(s.RowPanelLines, s.GridW)
			row = min(skew+cand, s.RowPanelLines)
		}
		if s.GridH > 1 && s.ColPanelLines > 0 {
			skew := uint64(s.GridH-1) * skewStep(s.ColPanelLines, s.GridH)
			col = min(skew+cand, s.ColPanelLines)
		}
	}
	return row, col
}

// RegionHome returns the module that region-aware placement homes the
// page-sized block starting at the given line on, or -1 for blocks outside
// the panel and own regions (shared and scatter data keep first-touch
// semantics). module is the kernel's CTA→module layout.
//
// A panel is consumed by a whole grid row (or column) of CTAs, which may
// span several modules; the home rotates deterministically across exactly
// those modules, indexed by the panel number, so panel pages spread evenly
// over their consumers instead of racing to a first toucher.
func (s *Spec) RegionHome(line uint64, module func(cta int) int) int {
	rowBase, colBase, ownBase, perCTA := s.Regions()
	switch {
	case line < rowBase:
		return -1
	case line < colBase:
		y := int((line - rowBase) / s.RowPanelLines)
		return rotatedHome(y, s.GridW, func(x int) int { return module(y*s.GridW + x) })
	case line < ownBase:
		x := int((line - colBase) / s.ColPanelLines)
		return rotatedHome(x, s.GridH, func(y int) int { return module(y*s.GridW + x) })
	default:
		cta := int((line - ownBase) / perCTA)
		if cta >= s.CTAs {
			cta = s.CTAs - 1 // leftover lines past the last even division
		}
		return module(cta)
	}
}

// rotatedHome picks the (idx mod k)-th distinct module among the n CTAs the
// probe enumerates, where k is the number of distinct modules seen.
func rotatedHome(idx, n int, probe func(i int) int) int {
	var seen [32]int
	ns := 0
	for i := 0; i < n; i++ {
		m := probe(i)
		if m < 0 {
			continue
		}
		dup := false
		for j := 0; j < ns; j++ {
			if seen[j] == m {
				dup = true
				break
			}
		}
		if !dup && ns < len(seen) {
			seen[ns] = m
			ns++
		}
	}
	if ns == 0 {
		return -1
	}
	return seen[idx%ns]
}

// OpsForCTA returns the per-warp memory operation count of one CTA,
// applying the deterministic work-imbalance skew. The skew is a gradient
// over the CTA index space — CTA 0 does (1-W)x the nominal work and the
// last CTA (1+W)x — matching how imbalance arises in practice (triangular
// solves, refinement regions): correlated with position, which is exactly
// what defeats contiguous chunk scheduling. Uncorrelated per-CTA noise
// would average out over a chunk and never unbalance modules.
func (s *Spec) OpsForCTA(cta int) int {
	if s.WorkImbalance <= 0 || s.CTAs <= 1 {
		return s.MemOpsPerWarp
	}
	u := float64(cta) / float64(s.CTAs-1) // [0,1] across the index space
	f := 1 + s.WorkImbalance*(2*u-1)
	ops := int(float64(s.MemOpsPerWarp)*f + 0.5)
	if ops < 1 {
		ops = 1
	}
	return ops
}

// TotalWarps returns warps per kernel launch.
func (s *Spec) TotalWarps() int { return s.CTAs * s.WarpsPerCTA }

// TotalMemOps returns memory operations across all kernel launches,
// accounting for per-CTA work imbalance.
func (s *Spec) TotalMemOps() uint64 {
	if s.WorkImbalance <= 0 {
		return uint64(s.CTAs) * uint64(s.WarpsPerCTA) * uint64(s.MemOpsPerWarp) * uint64(s.KernelIters)
	}
	var total uint64
	for cta := 0; cta < s.CTAs; cta++ {
		total += uint64(s.OpsForCTA(cta))
	}
	return total * uint64(s.WarpsPerCTA) * uint64(s.KernelIters)
}

// ModelFootprintMB returns the model working set in MB.
func (s *Spec) ModelFootprintMB() float64 {
	return float64(s.FootprintLines) * float64(config.LineBytes) / float64(config.MB)
}

// AtScale returns the spec a run at scale f simulates: s.Scaled(f) for a
// positive f other than 1, and s itself otherwise, since 1 and any scale
// that is not positive mean full size. Every path that runs or estimates a
// spec at a scale applies it here.
func (s *Spec) AtScale(f float64) *Spec {
	if f > 0 && f != 1 {
		return s.Scaled(f)
	}
	return s
}

// Scaled returns a copy with per-warp work and footprint scaled by f, used
// to trade fidelity for simulation time. Parallelism (CTAs, warps) and
// locality structure are preserved. f must be positive.
func (s *Spec) Scaled(f float64) *Spec {
	if f <= 0 {
		panic(fmt.Sprintf("workload %s: non-positive scale %v", s.Name, f))
	}
	out := *s
	out.MemOpsPerWarp = max(1, int(float64(s.MemOpsPerWarp)*f+0.5))
	if s.SharedLines > 0 {
		sh := uint64(float64(s.SharedLines)*f + 0.5)
		if sh < 64 {
			sh = 64
		}
		out.SharedLines = sh
	}
	if s.ScatterLines > 0 {
		sc := uint64(float64(s.ScatterLines)*f + 0.5)
		if sc < 64 {
			sc = 64
		}
		out.ScatterLines = sc
	}
	if s.RowPanelLines > 0 {
		rp := uint64(float64(s.RowPanelLines)*f + 0.5)
		if rp < 64 {
			rp = 64
		}
		out.RowPanelLines = rp
	}
	if s.ColPanelLines > 0 {
		cp := uint64(float64(s.ColPanelLines)*f + 0.5)
		if cp < 64 {
			cp = 64
		}
		out.ColPanelLines = cp
	}
	fp := uint64(float64(s.FootprintLines)*f + 0.5)
	floor := uint64(s.CTAs)*2 + out.SharedLines + out.ScatterLines + out.PanelLines()
	out.FootprintLines = max(fp, floor)
	return &out
}
