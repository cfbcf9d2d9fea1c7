package workload

import (
	"fmt"
	"sort"
	"strings"
)

// lines converts megabytes to 128-byte cache lines.
func lines(mb float64) uint64 { return uint64(mb * 8192) }

// mi builds a memory-intensive spec with the suite-wide defaults.
func mi(name string, paperMB int, p Pattern, fpMB float64, ops, cpm int, wf float64, lpo, iters int) Spec {
	return Spec{
		Name: name, Category: MemoryIntensive, Pattern: p,
		CTAs: 2048, WarpsPerCTA: 4,
		MemOpsPerWarp: ops, ComputePerMem: cpm, KernelIters: iters,
		FootprintLines: lines(fpMB), PaperFootprintMB: paperMB,
		WriteFraction: wf, LinesPerOp: lpo,
	}
}

// ci builds a compute-intensive spec.
func ci(name string, p Pattern, fpMB float64, ops, cpm int, wf float64, lpo, iters int) Spec {
	return Spec{
		Name: name, Category: ComputeIntensive, Pattern: p,
		CTAs: 2048, WarpsPerCTA: 4,
		MemOpsPerWarp: ops, ComputePerMem: cpm, KernelIters: iters,
		FootprintLines: lines(fpMB),
		WriteFraction:  wf, LinesPerOp: lpo,
	}
}

// lp builds a limited-parallelism spec.
func lp(name string, p Pattern, fpMB float64, ctas, warps, ops, cpm int, wf float64, lpo, iters int) Spec {
	return Spec{
		Name: name, Category: LimitedParallelism, Pattern: p,
		CTAs: ctas, WarpsPerCTA: warps,
		MemOpsPerWarp: ops, ComputePerMem: cpm, KernelIters: iters,
		FootprintLines: lines(fpMB),
		WriteFraction:  wf, LinesPerOp: lpo,
	}
}

// buildSuite constructs the 48-application suite. Parameters are calibrated
// so that category-level behavior matches the paper: memory-intensive
// applications saturate DRAM and are sensitive to inter-GPM bandwidth,
// compute-intensive applications are bound by SM issue throughput, and
// limited-parallelism applications cannot fill 256 SMs.
func buildSuite() []Spec {
	specs := []Spec{}

	// --- 17 memory-intensive applications (Table 4). ---
	add := func(s Spec, tweak func(*Spec)) {
		if tweak != nil {
			tweak(&s)
		}
		s.Seed = uint64(len(specs))*0x9e3779b97f4a7c15 + 1
		specs = append(specs, s)
	}

	add(mi("NN-Conv", 496, PatStrided, 32, 32, 4, 0.20, 2, 2), func(s *Spec) { s.Stride = 4 })
	add(mi("Stream", 3072, PatStreaming, 48, 48, 2, 0.33, 1, 2), nil)
	add(mi("Srad-v2", 96, PatStrided, 12, 24, 6, 0.30, 2, 3), func(s *Spec) {
		s.Stride = 8
		s.NeighborFraction = 0.10
	})
	add(mi("Lulesh1", 1891, PatStencil, 24, 24, 8, 0.25, 2, 2), func(s *Spec) { s.NeighborFraction = 0.20 })
	add(mi("SSSP", 37, PatIrregular, 8, 24, 16, 0.15, 2, 2), func(s *Spec) {
		s.RandomFraction = 0.22
		s.SharedFraction = 0.25   // power-law hub vertices
		s.ScatterLines = lines(1) // distance array
		s.SharedLines = lines(1)
		s.ReuseProb = 0.10
	})
	add(mi("Lulesh2", 4309, PatStencil, 32, 32, 8, 0.25, 2, 2), func(s *Spec) { s.NeighborFraction = 0.20 })
	add(mi("MiniAMR", 5407, PatStreaming, 40, 40, 6, 0.30, 1, 2), nil)
	add(mi("Kmeans", 216, PatHotRegion, 24, 24, 10, 0.10, 1, 3), func(s *Spec) {
		s.SharedFraction = 0.40
		s.SharedLines = lines(2)
	})
	add(mi("Nekbone1", 1746, PatStencil, 24, 24, 12, 0.20, 1, 2), func(s *Spec) { s.NeighborFraction = 0.15 })
	add(mi("Lulesh3", 203, PatIrregular, 8, 16, 16, 0.25, 2, 2), func(s *Spec) {
		s.RandomFraction = 0.20
		s.SharedFraction = 0.15   // shared mesh connectivity
		s.ScatterLines = lines(1) // gather/scatter indices
		s.SharedLines = lines(1)
	})
	add(mi("BFS", 37, PatIrregular, 6, 16, 14, 0.20, 2, 3), func(s *Spec) {
		s.RandomFraction = 0.25
		s.SharedFraction = 0.25   // frontier hubs
		s.ScatterLines = lines(1) // visited bitmap + frontier
		s.SharedLines = lines(1)
		s.ReuseProb = 0.10
	})
	add(mi("MnCtct", 251, PatIrregular, 10, 16, 16, 0.25, 2, 2), func(s *Spec) {
		s.RandomFraction = 0.18
		s.SharedFraction = 0.15      // contact surface lists
		s.ScatterLines = lines(1.25) // contact pair targets
		s.SharedLines = lines(1)
		s.NeighborFraction = 0.10
	})
	add(mi("Nekbone2", 287, PatStencil, 12, 16, 12, 0.20, 1, 3), func(s *Spec) { s.NeighborFraction = 0.15 })
	add(mi("AMG", 5430, PatIrregular, 40, 24, 12, 0.20, 2, 2), func(s *Spec) {
		s.RandomFraction = 0.18
		s.SharedFraction = 0.15   // coarse-grid levels
		s.ScatterLines = lines(8) // matrix column indices
		s.SharedLines = lines(2)
	})
	add(mi("MST", 73, PatIrregular, 8, 24, 16, 0.15, 2, 2), func(s *Spec) {
		s.CTAs = 1024
		s.RandomFraction = 0.22
		s.SharedFraction = 0.25   // component roots
		s.ScatterLines = lines(1) // union-find parents
		s.SharedLines = lines(1)
		s.ReuseProb = 0.15
		s.WorkImbalance = 0.6 // component sizes vary wildly
	})
	add(mi("CFD", 25, PatStencil, 6, 16, 8, 0.25, 2, 4), func(s *Spec) {
		s.NeighborFraction = 0.25
		s.ReuseProb = 0.10
	})
	add(mi("CoMD", 385, PatStencil, 5, 16, 10, 0.20, 2, 4), func(s *Spec) {
		s.NeighborFraction = 0.30
		s.ReuseProb = 0.15
	})

	// --- 16 compute-intensive applications. ---
	add(ci("SP", PatStencil, 8, 16, 10, 0.25, 2, 4), func(s *Spec) { s.NeighborFraction = 0.30 })
	add(ci("XSBench", PatHotRegion, 16, 12, 28, 0.05, 2, 3), func(s *Spec) {
		s.SharedFraction = 0.60
		s.SharedLines = lines(1)
		s.RandomFraction = 0.15
		s.ScatterLines = lines(1.5) // nuclide grid lookups
	})
	add(ci("GEMM", PatComputeTile, 12, 12, 64, 0.15, 1, 2), nil)
	add(ci("LavaMD", PatStencil, 8, 10, 48, 0.20, 1, 2), func(s *Spec) { s.NeighborFraction = 0.25 })
	add(ci("Hotspot", PatStencil, 8, 12, 40, 0.25, 1, 3), func(s *Spec) { s.NeighborFraction = 0.20 })
	add(ci("Backprop", PatStreaming, 12, 12, 36, 0.30, 1, 2), nil)
	add(ci("Pathfinder", PatStreaming, 10, 12, 32, 0.25, 1, 2), nil)
	add(ci("BlackScholes", PatStreaming, 12, 12, 48, 0.25, 1, 2), nil)
	add(ci("Histo", PatHotRegion, 8, 12, 32, 0.50, 1, 2), func(s *Spec) {
		s.SharedFraction = 0.50
		s.SharedLines = lines(1)
	})
	add(ci("MD5Hash", PatComputeTile, 4, 8, 96, 0.05, 1, 2), nil)
	add(ci("Raytracer", PatIrregular, 12, 10, 40, 0.10, 2, 2), func(s *Spec) {
		s.RandomFraction = 0.18
		s.SharedFraction = 0.20   // BVH top levels
		s.ScatterLines = lines(3) // leaf primitive scatter
		s.SharedLines = lines(1)
	})
	add(ci("Leukocyte", PatStencil, 8, 10, 56, 0.15, 1, 2), func(s *Spec) { s.NeighborFraction = 0.20 })
	add(ci("Heartwall", PatStencil, 8, 10, 48, 0.20, 1, 2), func(s *Spec) { s.NeighborFraction = 0.20 })
	add(ci("Myocyte", PatComputeTile, 4, 8, 80, 0.10, 1, 2), nil)
	add(ci("ParticleFilter", PatHotRegion, 8, 10, 36, 0.20, 1, 2), func(s *Spec) {
		s.SharedFraction = 0.35
		s.SharedLines = lines(1)
	})
	add(ci("FFT", PatStrided, 12, 12, 40, 0.30, 1, 2), func(s *Spec) { s.Stride = 64 })

	// --- 15 limited-parallelism applications. ---
	add(lp("DWT", PatStreaming, 4, 32, 16, 48, 10, 0.30, 1, 2), nil)
	add(lp("NN", PatStreaming, 3, 24, 16, 32, 6, 0.10, 1, 3), nil)
	add(lp("Streamcluster", PatStreaming, 8, 64, 24, 48, 8, 0.45, 1, 3), nil)
	add(lp("Gaussian", PatStrided, 4, 48, 16, 32, 12, 0.30, 1, 3), func(s *Spec) { s.Stride = 16 })
	add(lp("NW", PatStencil, 4, 32, 16, 32, 10, 0.30, 1, 3), func(s *Spec) { s.NeighborFraction = 0.30 })
	add(lp("Hybridsort", PatIrregular, 8, 64, 24, 32, 8, 0.35, 2, 2), func(s *Spec) {
		s.RandomFraction = 0.20
		s.ScatterLines = lines(2) // bucket scatter
		s.WorkImbalance = 0.6     // bucket sizes are data dependent
	})
	add(lp("Mummer", PatIrregular, 8, 48, 16, 32, 16, 0.05, 2, 2), func(s *Spec) {
		s.RandomFraction = 0.25
		s.SharedFraction = 0.20   // suffix-tree upper levels
		s.ScatterLines = lines(2) // suffix links
		s.SharedLines = lines(1)
	})
	add(lp("BTree", PatIrregular, 6, 32, 16, 24, 16, 0.05, 2, 2), func(s *Spec) {
		s.RandomFraction = 0.30
		s.SharedFraction = 0.20     // root and inner nodes
		s.ScatterLines = lines(1.5) // leaf lookups
		s.SharedLines = lines(0.5)
		s.ReuseProb = 0.15
	})
	add(lp("Lud", PatStencil, 4, 40, 16, 32, 14, 0.25, 1, 3), func(s *Spec) { s.NeighborFraction = 0.20 })
	add(lp("Cell", PatStencil, 6, 64, 24, 32, 12, 0.25, 1, 2), func(s *Spec) { s.NeighborFraction = 0.25 })
	add(lp("CRC", PatComputeTile, 2, 48, 16, 24, 64, 0.05, 1, 2), nil)
	add(lp("SobolQRNG", PatStreaming, 6, 64, 16, 24, 24, 0.50, 1, 2), nil)
	add(lp("ScalarProd", PatStreaming, 6, 56, 16, 32, 16, 0.10, 1, 2), nil)
	add(lp("BilateralFilter", PatStencil, 6, 64, 24, 24, 32, 0.25, 1, 2), func(s *Spec) { s.NeighborFraction = 0.20 })
	add(lp("QRDecomp", PatStrided, 4, 32, 16, 32, 24, 0.25, 1, 3), func(s *Spec) { s.Stride = 8 })

	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			panic(fmt.Sprintf("workload: suite entry %d: %v", i, err))
		}
	}
	return specs
}

var suite = buildSuite()

// Suite returns all 48 applications. Callers must not modify the returned
// specs; use Spec.Scaled or copy first.
func Suite() []*Spec {
	out := make([]*Spec, len(suite))
	for i := range suite {
		out[i] = &suite[i]
	}
	return out
}

// ByCategory returns the applications in the given category, preserving the
// paper's presentation order.
func ByCategory(c Category) []*Spec {
	var out []*Spec
	for i := range suite {
		if suite[i].Category == c {
			out = append(out, &suite[i])
		}
	}
	return out
}

// MIntensive returns the 17 memory-intensive applications of Table 4.
func MIntensive() []*Spec { return ByCategory(MemoryIntensive) }

// CIntensive returns the 16 compute-intensive applications.
func CIntensive() []*Spec { return ByCategory(ComputeIntensive) }

// Limited returns the 15 limited-parallelism applications.
func Limited() []*Spec { return ByCategory(LimitedParallelism) }

// ByName returns the named application — searching the 48-app suite and the
// dense extension family — or an error naming the alternatives.
func ByName(name string) (*Spec, error) {
	for i := range suite {
		if suite[i].Name == name {
			return &suite[i], nil
		}
	}
	for i := range dense {
		if dense[i].Name == name {
			return &dense[i], nil
		}
	}
	names := Names()
	sort.Strings(names)
	return nil, fmt.Errorf("workload: unknown application %q (have %v)", name, names)
}

// Select resolves a command-line workload selection: "all" (the 48-app
// suite), a category ("m-intensive", "c-intensive", "limited"), "dense" (the
// dense extension family) — all case-insensitive — or one application name.
func Select(sel string) ([]*Spec, error) {
	switch strings.ToLower(sel) {
	case "all":
		return Suite(), nil
	case "m-intensive":
		return MIntensive(), nil
	case "c-intensive":
		return CIntensive(), nil
	case "limited":
		return Limited(), nil
	case "dense":
		return Dense(), nil
	}
	s, err := ByName(sel)
	if err != nil {
		return nil, err
	}
	return []*Spec{s}, nil
}

// Names returns all application names: the 48-app suite in order, then the
// dense extension family.
func Names() []string {
	out := make([]string, 0, len(suite)+len(dense))
	for i := range suite {
		out = append(out, suite[i].Name)
	}
	for i := range dense {
		out = append(out, dense[i].Name)
	}
	return out
}
