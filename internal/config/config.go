// Package config defines the architectural parameters of every system the
// paper evaluates and provides presets for each of them: the baseline and
// optimized MCM-GPU (Table 3), monolithic GPUs from 32 to 256 SMs (Figure 2),
// and the two-GPU board-level system of Section 6.
//
// A single Config describes a "machine" as a set of modules (GPMs, or whole
// GPUs in the multi-GPU case) connected by an inter-module network, each
// module owning SMs and memory partitions. A monolithic GPU is simply a
// machine with one module and no inter-module network, so all three system
// classes share one simulator.
package config

import (
	"fmt"
	"math"
)

// AllocPolicy selects which fills a module-side (L1.5) cache accepts.
type AllocPolicy int

const (
	// AllocAll caches both local and remote data.
	AllocAll AllocPolicy = iota
	// AllocRemoteOnly caches only data homed in a remote module's memory;
	// local accesses bypass the cache. This is the policy the paper selects
	// (Section 5.1.2).
	AllocRemoteOnly
)

// String returns the policy name.
func (p AllocPolicy) String() string {
	switch p {
	case AllocAll:
		return "all"
	case AllocRemoteOnly:
		return "remote-only"
	}
	return fmt.Sprintf("AllocPolicy(%d)", int(p))
}

// SchedulerKind selects the CTA scheduling policy.
type SchedulerKind int

const (
	// SchedCentralized is the baseline: a single scheduler hands consecutive
	// CTAs to whichever SM frees up first, machine-wide round-robin.
	SchedCentralized SchedulerKind = iota
	// SchedDistributed divides the CTA index space into contiguous chunks,
	// one per module, so neighboring CTAs share a GPM (Section 5.2).
	SchedDistributed
	// SchedDynamic extends SchedDistributed with tail stealing: a module
	// whose chunk drains takes the trailing half of the busiest module's
	// remaining range. This implements the dynamic group sizing the paper
	// leaves as future work (Section 5.4) to recover the load imbalance it
	// observes for CTAs with unequal work.
	SchedDynamic
	// SchedTiled2D maps 2-D super-tiles of the CTA grid to modules: the
	// grid is cut into a near-square mw x mh factorization of the module
	// count, so a CTA keeps both its row neighbors and its column
	// neighbors on the same GPM. On workloads whose reuse is 2-D (tiled
	// GEMM, attention heads) this is what 1-D contiguous chunking cannot
	// provide; on 1-D grids it degenerates to SchedDistributed.
	SchedTiled2D
)

// String returns the scheduler name.
func (s SchedulerKind) String() string {
	switch s {
	case SchedCentralized:
		return "centralized"
	case SchedDistributed:
		return "distributed"
	case SchedDynamic:
		return "dynamic"
	case SchedTiled2D:
		return "tiled2d"
	}
	return fmt.Sprintf("SchedulerKind(%d)", int(s))
}

// PlacementKind selects the page placement policy.
type PlacementKind int

const (
	// PlaceInterleave interleaves lines across all memory partitions at
	// cache-line granularity (the paper's baseline).
	PlaceInterleave PlacementKind = iota
	// PlaceFirstTouch maps each page to a memory partition of the module
	// whose SM first touches it (Section 5.3).
	PlaceFirstTouch
	// PlaceRegionAware binds a page to the module that the CTA layout says
	// owns the page's region (panel or tile), falling back to first touch
	// for pages outside any owned region. Where first touch binds a shared
	// panel to whichever module raced to it first, region-aware placement
	// derives a deterministic home from the scheduler's CTA-to-module map,
	// so it requires a static layout (not the centralized scheduler).
	PlaceRegionAware
)

// String returns the placement name.
func (p PlacementKind) String() string {
	switch p {
	case PlaceInterleave:
		return "interleave"
	case PlaceFirstTouch:
		return "first-touch"
	case PlaceRegionAware:
		return "region-aware"
	}
	return fmt.Sprintf("PlacementKind(%d)", int(p))
}

// TopologyKind selects the inter-module network topology.
type TopologyKind int

const (
	// TopoNone means a single module; there is no inter-module network.
	TopoNone TopologyKind = iota
	// TopoRing is the paper's on-package ring of GPM-Xbars.
	TopoRing
	// TopoCrossbar is a fully connected inter-module network (used for the
	// topology ablation).
	TopoCrossbar
	// TopoMesh is a 2D mesh with XY routing, the natural topology for
	// larger GPM counts; the paper notes exploring such topologies is out
	// of its scope, so this is an extension.
	TopoMesh
)

// String returns the topology name.
func (t TopologyKind) String() string {
	switch t {
	case TopoNone:
		return "none"
	case TopoRing:
		return "ring"
	case TopoCrossbar:
		return "crossbar"
	case TopoMesh:
		return "mesh"
	}
	return fmt.Sprintf("TopologyKind(%d)", int(t))
}

// CacheConfig describes one cache level. SizeBytes == 0 disables the level.
type CacheConfig struct {
	SizeBytes  int // total capacity of one instance of this cache
	LineBytes  int // cache line size
	Ways       int // set associativity
	HitLatency uint64
	WriteBack  bool // write-back (true) or write-through (false)
}

// Enabled reports whether the level exists.
func (c CacheConfig) Enabled() bool { return c.SizeBytes > 0 }

// Lines returns the number of lines the cache holds.
func (c CacheConfig) Lines() int {
	if c.LineBytes == 0 {
		return 0
	}
	return c.SizeBytes / c.LineBytes
}

// LinkConfig describes inter-module links.
type LinkConfig struct {
	GBps            float64 // bandwidth per link, per direction
	HopLatency      uint64  // cycles added per hop traversed
	ReqHeaderBytes  int     // bytes on the wire for a request (no payload)
	RespHeaderBytes int     // header bytes added to a data response
	Board           bool    // board-level link (multi-GPU) rather than on-package GRS
}

// Config is the complete description of one simulated machine.
type Config struct {
	Name string

	// Topology of compute and memory.
	Modules             int // GPMs, or whole GPUs for a board-level system
	SMsPerModule        int
	PartitionsPerModule int // memory partitions (L2 slice + DRAM) per module

	// SM parameters.
	WarpsPerSM   int     // maximum resident warps per SM (Table 3: 64)
	IssuePerSM   float64 // warp instructions issued per cycle per SM
	MaxCTAsPerSM int     // CTA residency cap per SM (0 = limited by warps only)

	// Cache hierarchy. L1 is per SM, L15 is per module, L2 is per partition.
	L1       CacheConfig
	L15      CacheConfig
	L15Alloc AllocPolicy
	L2       CacheConfig
	L2BWMult float64 // L2 bank bandwidth as a multiple of its partition's DRAM bandwidth

	// Memory system.
	DRAMGBps    float64 // per partition
	DRAMLatency uint64  // cycles (100 ns at 1 GHz per Table 3)

	// On-module interconnect (SMs to local memory and to the module edge).
	XbarGBps    float64 // per module
	XbarLatency uint64

	// Inter-module network.
	Topology TopologyKind
	Link     LinkConfig

	// Policies.
	Scheduler          SchedulerKind
	Placement          PlacementKind
	PageBytes          int
	CTAChunksPerModule int // distributed-scheduler granularity; 1 = one contiguous chunk per module
}

// TotalSMs returns the machine-wide SM count.
func (c *Config) TotalSMs() int { return c.Modules * c.SMsPerModule }

// TotalPartitions returns the machine-wide memory partition count.
func (c *Config) TotalPartitions() int { return c.Modules * c.PartitionsPerModule }

// TotalDRAMGBps returns aggregate DRAM bandwidth.
func (c *Config) TotalDRAMGBps() float64 {
	return float64(c.TotalPartitions()) * c.DRAMGBps
}

// TotalL2Bytes returns aggregate memory-side L2 capacity.
func (c *Config) TotalL2Bytes() int { return c.TotalPartitions() * c.L2.SizeBytes }

// TotalL15Bytes returns aggregate module-side cache capacity.
func (c *Config) TotalL15Bytes() int {
	if !c.L15.Enabled() {
		return 0
	}
	return c.Modules * c.L15.SizeBytes
}

// TotalIssuePerCycle returns the machine-wide instruction issue bandwidth
// in warp instructions per cycle — the compute roofline.
func (c *Config) TotalIssuePerCycle() float64 {
	return float64(c.TotalSMs()) * c.IssuePerSM
}

// TotalXbarGBps returns the aggregate on-module fabric bandwidth across all
// modules (bytes/cycle at 1 GHz).
func (c *Config) TotalXbarGBps() float64 {
	return float64(c.Modules) * c.XbarGBps
}

// TotalL2BankGBps returns the aggregate memory-side L2 bank bandwidth
// across all partitions (bytes/cycle at 1 GHz).
func (c *Config) TotalL2BankGBps() float64 {
	return c.TotalDRAMGBps() * c.L2BWMult
}

// LinesPerPage returns how many cache lines one page holds. The ratio of
// page size to a CTA's region decides how much of first-touch placement's
// benefit page-granularity false sharing destroys, so the analytic
// estimator needs it as much as the address map does.
func (c *Config) LinesPerPage() int { return c.PageBytes / LineBytes }

// CTAsPerSM returns how many CTAs of the given warp count one SM can hold
// concurrently, honoring both the warp-residency and CTA-residency caps.
func (c *Config) CTAsPerSM(warpsPerCTA int) int {
	if warpsPerCTA <= 0 {
		warpsPerCTA = 1
	}
	byWarps := c.WarpsPerSM / warpsPerCTA
	if c.MaxCTAsPerSM > 0 && c.MaxCTAsPerSM < byWarps {
		return c.MaxCTAsPerSM
	}
	return byWarps
}

// finitePositive reports whether v is a usable positive rate: NaN compares
// false against everything (so a plain v <= 0 check lets it through), and
// +Inf passes v > 0 but poisons every downstream timing computation.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// Validate checks internal consistency and returns a descriptive error for
// the first problem found. A config that validates must be safe to hand to
// the simulator: every panic in core/cache/noc/cta/vm construction is
// guarded by a check here, which is what lets the config fuzzer assert
// "Validate == nil implies New does not panic".
func (c *Config) Validate() error {
	switch {
	case c.Modules <= 0:
		return fmt.Errorf("config %q: Modules = %d, must be positive", c.Name, c.Modules)
	case c.SMsPerModule <= 0:
		return fmt.Errorf("config %q: SMsPerModule = %d, must be positive", c.Name, c.SMsPerModule)
	case c.PartitionsPerModule <= 0:
		return fmt.Errorf("config %q: PartitionsPerModule = %d, must be positive", c.Name, c.PartitionsPerModule)
	case c.WarpsPerSM <= 0:
		return fmt.Errorf("config %q: WarpsPerSM = %d, must be positive", c.Name, c.WarpsPerSM)
	case !finitePositive(c.IssuePerSM):
		return fmt.Errorf("config %q: IssuePerSM = %v, must be positive and finite", c.Name, c.IssuePerSM)
	case !finitePositive(c.DRAMGBps):
		return fmt.Errorf("config %q: DRAMGBps = %v, must be positive and finite", c.Name, c.DRAMGBps)
	case !finitePositive(c.XbarGBps):
		return fmt.Errorf("config %q: XbarGBps = %v, must be positive and finite", c.Name, c.XbarGBps)
	case c.PageBytes <= 0:
		return fmt.Errorf("config %q: PageBytes = %d, must be positive", c.Name, c.PageBytes)
	case !finitePositive(c.L2BWMult):
		return fmt.Errorf("config %q: L2BWMult = %v, must be positive and finite", c.Name, c.L2BWMult)
	}
	if c.Topology < TopoNone || c.Topology > TopoMesh {
		return fmt.Errorf("config %q: unknown topology %v", c.Name, c.Topology)
	}
	if c.Scheduler < SchedCentralized || c.Scheduler > SchedTiled2D {
		return fmt.Errorf("config %q: unknown scheduler %v", c.Name, c.Scheduler)
	}
	if c.Placement < PlaceInterleave || c.Placement > PlaceRegionAware {
		return fmt.Errorf("config %q: unknown placement policy %v", c.Name, c.Placement)
	}
	// Region-aware placement derives page homes from the scheduler's static
	// CTA-to-module layout; the centralized scheduler has none.
	if c.Placement == PlaceRegionAware && c.Scheduler == SchedCentralized {
		return fmt.Errorf("config %q: region-aware placement requires a static CTA layout (distributed, dynamic or tiled2d scheduler)", c.Name)
	}
	if c.L15Alloc < AllocAll || c.L15Alloc > AllocRemoteOnly {
		return fmt.Errorf("config %q: unknown L1.5 allocation policy %v", c.Name, c.L15Alloc)
	}
	if c.Modules > 1 && c.Topology == TopoNone {
		return fmt.Errorf("config %q: %d modules but no inter-module topology", c.Name, c.Modules)
	}
	if c.Modules > 1 && !finitePositive(c.Link.GBps) {
		return fmt.Errorf("config %q: multi-module machine needs finite Link.GBps > 0, got %v", c.Name, c.Link.GBps)
	}
	if c.Link.ReqHeaderBytes < 0 || c.Link.RespHeaderBytes < 0 {
		return fmt.Errorf("config %q: negative link header bytes (req %d, resp %d)",
			c.Name, c.Link.ReqHeaderBytes, c.Link.RespHeaderBytes)
	}
	// The simulator instantiates L1 and L2 unconditionally (every SM has an
	// L1, every memory partition an L2 slice); only the module-side L1.5 is
	// optional.
	if !c.L1.Enabled() {
		return fmt.Errorf("config %q: L1 must be enabled (SizeBytes > 0)", c.Name)
	}
	if !c.L2.Enabled() {
		return fmt.Errorf("config %q: L2 must be enabled (SizeBytes > 0)", c.Name)
	}
	// Each level also has the one write policy the simulator models
	// (footnote 4 of the paper): L1 and L1.5 are write-through, because
	// software coherence flushes them at kernel boundaries without writing
	// anything back, and the memory-side L2 is write-back, the only path by
	// which stores reach DRAM. Any other policy would silently change
	// results, e.g. a write-through L2 drops every store's DRAM traffic.
	for _, cc := range []struct {
		name      string
		c         CacheConfig
		writeBack bool
	}{{"L1", c.L1, false}, {"L1.5", c.L15, false}, {"L2", c.L2, true}} {
		if !cc.c.Enabled() {
			continue
		}
		if cc.c.WriteBack != cc.writeBack {
			want, got := "write-through", "write-back"
			if cc.writeBack {
				want, got = got, want
			}
			return fmt.Errorf("config %q: %s must be %s, not %s (footnote 4 of the paper: write-through L1/L1.5, write-back L2 is the only hierarchy the simulator models)",
				c.Name, cc.name, want, got)
		}
		if cc.c.LineBytes <= 0 {
			return fmt.Errorf("config %q: %s LineBytes = %d", c.Name, cc.name, cc.c.LineBytes)
		}
		if cc.c.Ways <= 0 {
			return fmt.Errorf("config %q: %s Ways = %d", c.Name, cc.name, cc.c.Ways)
		}
		lines := cc.c.SizeBytes / cc.c.LineBytes
		if lines < cc.c.Ways {
			return fmt.Errorf("config %q: %s holds %d lines, fewer than %d ways", c.Name, cc.name, lines, cc.c.Ways)
		}
		if lines%cc.c.Ways != 0 {
			return fmt.Errorf("config %q: %s holds %d lines, not divisible into %d ways", c.Name, cc.name, lines, cc.c.Ways)
		}
		sets := lines / cc.c.Ways
		if sets&(sets-1) != 0 {
			return fmt.Errorf("config %q: %s set count %d is not a power of two", c.Name, cc.name, sets)
		}
	}
	if c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("config %q: PageBytes %d is not a power of two", c.Name, c.PageBytes)
	}
	// Address translation derives lines-per-page from the machine-wide line
	// size; a page smaller than a line would make that zero.
	if c.PageBytes < LineBytes {
		return fmt.Errorf("config %q: PageBytes %d is smaller than the %d-byte line", c.Name, c.PageBytes, LineBytes)
	}
	return nil
}

// Clone returns a deep copy so presets can be modified freely.
func (c *Config) Clone() *Config {
	out := *c
	return &out
}

const (
	// KB and MB are byte-size helpers.
	KB = 1024
	MB = 1024 * 1024

	// LineBytes is the cache line size used machine-wide (Table 3: 128 B).
	LineBytes = 128
)

// BaselineMCM returns the Table 3 baseline: a 4-GPM, 256-SM MCM-GPU with
// 3 TB/s aggregate DRAM bandwidth, 16 MB of memory-side L2, a 768 GB/s
// on-package ring, centralized CTA scheduling, fine-grain interleaving, and
// no L1.5 cache.
func BaselineMCM() *Config {
	return &Config{
		Name:                "mcm-baseline",
		Modules:             4,
		SMsPerModule:        64,
		PartitionsPerModule: 1,
		WarpsPerSM:          64,
		IssuePerSM:          1,
		L1: CacheConfig{
			SizeBytes:  128 * KB,
			LineBytes:  LineBytes,
			Ways:       4,
			HitLatency: 28,
		},
		L15: CacheConfig{}, // disabled
		L2: CacheConfig{
			SizeBytes:  4 * MB, // 16 MB total across 4 partitions
			LineBytes:  LineBytes,
			Ways:       16,
			HitLatency: 64,
			WriteBack:  true,
		},
		L2BWMult:    4,
		DRAMGBps:    768, // 3 TB/s total
		DRAMLatency: 100,
		XbarGBps:    4096,
		XbarLatency: 16,
		Topology:    TopoRing,
		Link: LinkConfig{
			GBps:            768,
			HopLatency:      32,
			ReqHeaderBytes:  32,
			RespHeaderBytes: 32,
		},
		Scheduler: SchedCentralized,
		Placement: PlaceInterleave,
		// 4 KB pages keep the pages-per-CTA-region ratio of the paper's
		// GB-scale footprints at this model's scaled-down footprints, so
		// first-touch page races at chunk boundaries stay as rare as they
		// would be at full scale.
		PageBytes:          4 * KB,
		CTAChunksPerModule: 1,
	}
}

// MCMWithLink returns the baseline MCM-GPU with the given per-link
// inter-GPM bandwidth in GB/s (the Figure 4 sweep).
func MCMWithLink(gbps float64) *Config {
	c := BaselineMCM()
	c.Name = fmt.Sprintf("mcm-link-%.0fGBps", gbps)
	c.Link.GBps = gbps
	return c
}

// WithL15 returns a copy of c with a module-side L1.5 cache of the given
// total capacity (split evenly across modules) and allocation policy,
// rebalancing L2 capacity in an iso-transistor manner against the 16 MB
// baseline budget: totalL15 + totalL2 = 16 MB, floored at the paper's 32 KB
// per-partition remnant. Capacities beyond 16 MB (the paper's 32 MB point)
// exceed the transistor budget and leave 32 KB of L2.
func WithL15(c *Config, totalL15Bytes int, policy AllocPolicy) *Config {
	out := c.Clone()
	perModule := totalL15Bytes / out.Modules
	out.L15 = CacheConfig{
		SizeBytes:  perModule,
		LineBytes:  LineBytes,
		Ways:       16,
		HitLatency: 44,
	}
	out.L15Alloc = policy
	budget := 16 * MB
	remain := budget - totalL15Bytes
	perPartition := remain / out.TotalPartitions()
	if perPartition < 32*KB {
		perPartition = 32 * KB
	}
	// Round down to a valid geometry: the set count must be a power of two.
	sets := perPartition / out.L2.LineBytes / out.L2.Ways
	pow := 1
	for pow*2 <= sets {
		pow *= 2
	}
	out.L2.SizeBytes = pow * out.L2.Ways * out.L2.LineBytes
	out.Name = fmt.Sprintf("%s+l15-%dMB-%s", c.Name, totalL15Bytes/MB, policy)
	return out
}

// WithScheduler returns a copy of c using the given CTA scheduler.
func WithScheduler(c *Config, s SchedulerKind) *Config {
	out := c.Clone()
	out.Scheduler = s
	out.Name = fmt.Sprintf("%s+%s", c.Name, s)
	return out
}

// WithPlacement returns a copy of c using the given page placement policy.
func WithPlacement(c *Config, p PlacementKind) *Config {
	out := c.Clone()
	out.Placement = p
	out.Name = fmt.Sprintf("%s+%s", c.Name, p)
	return out
}

// OptimizedMCM returns the paper's final design point: baseline MCM-GPU plus
// a remote-only L1.5, distributed CTA scheduling, and first-touch placement,
// with the 8 MB L1.5 / 8 MB L2 iso-transistor split that Figure 13 shows is
// best once first-touch placement keeps most traffic local.
func OptimizedMCM() *Config {
	c := WithL15(BaselineMCM(), 8*MB, AllocRemoteOnly)
	c.Scheduler = SchedDistributed
	c.Placement = PlaceFirstTouch
	c.Name = "mcm-optimized"
	return c
}

// OptimizedMCM16 returns the optimized design with the 16 MB L1.5 split
// (Figure 13's alternative bar).
func OptimizedMCM16() *Config {
	c := WithL15(BaselineMCM(), 16*MB, AllocRemoteOnly)
	c.Scheduler = SchedDistributed
	c.Placement = PlaceFirstTouch
	c.Name = "mcm-optimized-16MB"
	return c
}

// TiledRegionMCM returns the optimized MCM transistor budget (8 MB L2
// halves + 8 MB remote-only L1.5) re-paired for dense 2-D workloads: the
// tiled 2-D CTA scheduler with region-aware placement, the combination the
// tension study shows recovering the GEMM/attention loss that distributed
// scheduling + first touch suffers against the centralized baseline.
func TiledRegionMCM() *Config {
	c := OptimizedMCM()
	c.Scheduler = SchedTiled2D
	c.Placement = PlaceRegionAware
	c.Name = "mcm-tiled-region"
	return c
}

// Monolithic returns a single-die GPU with the given SM count. The memory
// system scales with SMs as in Figure 2: 384 GB/s of DRAM bandwidth and 2 MB
// of L2 per 32 SMs. SM counts above 128 are not manufacturable; the paper
// uses them as hypothetical upper bounds, and so do we. SM counts that are
// not positive multiples of 32 cannot scale the memory system and are
// rejected with an error: this is user input (CLI flags, sweep grids), not
// a programmer invariant.
func Monolithic(sms int) (*Config, error) {
	if sms <= 0 || sms%32 != 0 {
		return nil, fmt.Errorf("config: Monolithic SM count %d must be a positive multiple of 32", sms)
	}
	parts := sms / 32
	return &Config{
		Name:                fmt.Sprintf("monolithic-%dSM", sms),
		Modules:             1,
		SMsPerModule:        sms,
		PartitionsPerModule: parts,
		WarpsPerSM:          64,
		IssuePerSM:          1,
		L1: CacheConfig{
			SizeBytes:  128 * KB,
			LineBytes:  LineBytes,
			Ways:       4,
			HitLatency: 28,
		},
		L2: CacheConfig{
			SizeBytes:  2 * MB,
			LineBytes:  LineBytes,
			Ways:       16,
			HitLatency: 64,
			WriteBack:  true,
		},
		L2BWMult:           4,
		DRAMGBps:           384,
		DRAMLatency:        100,
		XbarGBps:           64 * float64(sms), // on-chip interconnect scales with die size
		XbarLatency:        16,
		Topology:           TopoNone,
		Scheduler:          SchedCentralized,
		Placement:          PlaceInterleave,
		PageBytes:          4 * KB,
		CTAChunksPerModule: 1,
	}, nil
}

// MustMonolithic is Monolithic for callers whose SM count is a known-good
// literal (tests, examples, presets); it panics on the errors Monolithic
// returns.
func MustMonolithic(sms int) *Config {
	c, err := Monolithic(sms)
	if err != nil {
		panic(err)
	}
	return c
}

// LargestBuildableMonolithic returns the 128-SM GPU the paper assumes is the
// largest die that can be manufactured.
func LargestBuildableMonolithic() *Config {
	c := MustMonolithic(128)
	c.Name = "monolithic-128SM-buildable"
	return c
}

// UnbuildableMonolithic returns the hypothetical 256-SM single-die GPU used
// as the upper bound throughout the evaluation.
func UnbuildableMonolithic() *Config {
	c := MustMonolithic(256)
	c.Name = "monolithic-256SM-unbuildable"
	return c
}

// MultiGPUBaseline returns the Section 6 board-level system: two maximally
// sized 128-SM GPUs, each with 1.5 TB/s of local DRAM and 8 MB of
// memory-side cache, joined by a 256 GB/s aggregate on-board link. The
// system is programmer-transparent and already uses distributed CTA
// scheduling and first-touch placement (the paper found round-robin
// placement performs very poorly at board-level bandwidth).
func MultiGPUBaseline() *Config {
	return &Config{
		Name:                "multi-gpu-baseline",
		Modules:             2,
		SMsPerModule:        128,
		PartitionsPerModule: 2, // 2 x 768 GB/s = 1.5 TB/s per GPU
		WarpsPerSM:          64,
		IssuePerSM:          1,
		L1: CacheConfig{
			SizeBytes:  128 * KB,
			LineBytes:  LineBytes,
			Ways:       4,
			HitLatency: 28,
		},
		L2: CacheConfig{
			SizeBytes:  4 * MB, // 8 MB per GPU
			LineBytes:  LineBytes,
			Ways:       16,
			HitLatency: 64,
			WriteBack:  true,
		},
		L2BWMult:    4,
		DRAMGBps:    768,
		DRAMLatency: 100,
		XbarGBps:    8192,
		XbarLatency: 16,
		Topology:    TopoRing, // two nodes: a single bidirectional link
		Link: LinkConfig{
			GBps:            256, // 256 GB/s aggregate: 128 GB/s per direction
			HopLatency:      250, // board-level serialization + wire latency
			ReqHeaderBytes:  32,
			RespHeaderBytes: 32,
			Board:           true,
		},
		Scheduler:          SchedDistributed,
		Placement:          PlaceFirstTouch,
		PageBytes:          4 * KB,
		CTAChunksPerModule: 1,
	}
}

// MultiGPUOptimized returns the Section 6 optimized multi-GPU: the baseline
// plus a GPU-side remote-only cache built from half of each GPU's L2 (4 MB
// remote cache + 4 MB L2 per GPU).
func MultiGPUOptimized() *Config {
	c := MultiGPUBaseline()
	c.Name = "multi-gpu-optimized"
	c.L15 = CacheConfig{
		SizeBytes:  4 * MB,
		LineBytes:  LineBytes,
		Ways:       16,
		HitLatency: 44,
	}
	c.L15Alloc = AllocRemoteOnly
	c.L2.SizeBytes = 2 * MB // 4 MB per GPU across 2 partitions
	return c
}

// MCMGPMs returns an optimized 256-SM MCM-GPU partitioned into the given
// number of GPMs (2, 4, 8 or 16), holding aggregate resources constant:
// 3 TB/s of DRAM, 16 MB of transistor budget for L2+L1.5, and 4 TB/s of
// on-chip fabric per 64 SMs. Up to 4 GPMs use the paper's ring; larger
// counts use a 2D mesh, the exploration the paper leaves as out of scope.
// Smaller GPMs are cheaper to manufacture but pay more NUMA penalty — this
// preset family quantifies that trade-off. GPM counts outside {2, 4, 8, 16}
// cannot partition the 256-SM budget evenly and are rejected with an error.
func MCMGPMs(gpms int) (*Config, error) {
	switch gpms {
	case 2, 4, 8, 16:
	default:
		return nil, fmt.Errorf("config: MCMGPMs(%d): GPM count must be 2, 4, 8 or 16", gpms)
	}
	c := BaselineMCM()
	c.Name = fmt.Sprintf("mcm-%dgpm-optimized", gpms)
	c.Modules = gpms
	c.SMsPerModule = 256 / gpms
	c.DRAMGBps = 3072 / float64(gpms)
	c.XbarGBps = 64 * float64(c.SMsPerModule) // hold per-SM fabric constant
	c.L2.SizeBytes = 8 * MB / gpms
	c.L15 = CacheConfig{
		SizeBytes:  8 * MB / gpms,
		LineBytes:  LineBytes,
		Ways:       16,
		HitLatency: 44,
	}
	c.L15Alloc = AllocRemoteOnly
	c.Scheduler = SchedDistributed
	c.Placement = PlaceFirstTouch
	if gpms > 4 {
		c.Topology = TopoMesh
	}
	return c, nil
}

// MustMCMGPMs is MCMGPMs for known-good literal GPM counts; it panics on
// the errors MCMGPMs returns.
func MustMCMGPMs(gpms int) *Config {
	c, err := MCMGPMs(gpms)
	if err != nil {
		panic(err)
	}
	return c
}
