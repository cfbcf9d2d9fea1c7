// Package vm implements the simulator's virtual-memory layer: the mapping
// from virtual line addresses to memory partitions under the page placement
// policies the paper and its follow-on work study.
//
// The baseline policy interleaves addresses across all physical DRAM
// partitions at cache-line granularity (Section 3.2). The first-touch policy
// (Section 5.3) maps each page to a memory partition local to the module
// whose SM touches it first; within that module, lines of the page are
// interleaved across the module's partitions so channel-level parallelism is
// preserved, mirroring the paper's per-partition channel interleaving. The
// region-aware policy consults a workload-provided binder first: a page that
// belongs to a known region (a GEMM panel, a CTA's own tile) is bound to the
// module the CTA layout says owns that region, and only pages outside any
// region fall back to first touch. Pages may also be pre-bound before the
// first kernel, modeling placement decided by an earlier init sweep.
package vm

import (
	"fmt"
	"math/bits"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/config"
)

// AddressMap translates virtual line addresses to memory partitions.
// It is not safe for concurrent use.
type AddressMap struct {
	policy         config.PlacementKind
	pageShift      uint
	partitions     int
	partsPerModule int
	// pages is the page table, indexed by page number: the owning module
	// plus one, or 0 for an unmapped page. Line addresses are dense from
	// zero (a workload's footprint), so a flat table is smaller and faster
	// than a hash map; it grows on demand to the highest page bound.
	pages           []int32
	mapped          int // bound pages, the nonzero entries of pages
	pagesPerModule  []int
	firstTouchFills uint64
	regionBinds     uint64
	prebinds        uint64
	binder          func(page uint64) int // region-aware page homes; nil = first touch only
}

// NewAddressMap builds an address map for the machine described by cfg.
func NewAddressMap(cfg *config.Config) *AddressMap {
	linesPerPage := uint64(cfg.PageBytes / config.LineBytes)
	return &AddressMap{
		policy:         cfg.Placement,
		pageShift:      uint(bits.TrailingZeros64(linesPerPage)),
		partitions:     cfg.TotalPartitions(),
		partsPerModule: cfg.PartitionsPerModule,
		pagesPerModule: make([]int, cfg.Modules),
	}
}

// SetBinder installs the region-aware page binder: a function returning the
// module a page should be homed on, or -1 for pages that should fall back
// to first touch. It is consulted the first time an unmapped page is
// touched. Only meaningful under PlaceRegionAware.
func (m *AddressMap) SetBinder(binder func(page uint64) int) { m.binder = binder }

// Prebind binds a page to a module before simulation, modeling placement
// already decided by an earlier phase (an init kernel's first-touch sweep).
// Pages already mapped are left untouched.
func (m *AddressMap) Prebind(page uint64, module int) {
	if m.policy == config.PlaceInterleave {
		return // interleave placement ignores page bindings
	}
	if _, ok := m.owner(page); ok {
		return
	}
	m.set(page, module)
	m.prebinds++
}

// owner returns the module a page is bound to, and whether it is bound.
func (m *AddressMap) owner(page uint64) (int, bool) {
	if page >= uint64(len(m.pages)) || m.pages[page] == 0 {
		return 0, false
	}
	return int(m.pages[page]) - 1, true
}

// set binds an unmapped page to module, growing the table to reach it.
func (m *AddressMap) set(page uint64, module int) {
	if page >= uint64(len(m.pages)) {
		m.pages = append(m.pages, make([]int32, page+1-uint64(len(m.pages)))...)
	}
	m.pages[page] = int32(module) + 1
	m.mapped++
	m.pagesPerModule[module]++
}

// bind maps an unmapped page, choosing the region-aware home when the
// binder provides one and falling back to first touch by the given module.
func (m *AddressMap) bind(page uint64, module int) int {
	if m.policy == config.PlaceRegionAware && m.binder != nil {
		if home := m.binder(page); home >= 0 {
			m.set(page, home)
			m.regionBinds++
			return home
		}
	}
	m.set(page, module)
	m.firstTouchFills++
	return module
}

// Partition returns the memory partition holding the given virtual line
// address. module is the module issuing the access; under first-touch and
// region-aware placement an unmapped page is bound on the spot.
func (m *AddressMap) Partition(lineAddr uint64, module int) int {
	switch m.policy {
	case config.PlaceInterleave:
		return int(lineAddr % uint64(m.partitions))
	case config.PlaceFirstTouch, config.PlaceRegionAware:
		page := lineAddr >> m.pageShift
		owner, ok := m.owner(page)
		if !ok {
			owner = m.bind(page, module)
		}
		// Interleave the page's lines across the owner's partitions to keep
		// channel-level parallelism within the local memory system.
		local := int(lineAddr % uint64(m.partsPerModule))
		return owner*m.partsPerModule + local
	}
	panic(fmt.Sprintf("vm: unknown placement policy %v", m.policy))
}

// CacheAddr compacts a virtual line address into the address space a
// memory-side L2 slice should index with. Lines reaching one partition share
// their partition-selection bits (the low bits under interleave, the
// intra-module interleave bits under page-bound placement); indexing a slice
// with the raw address would alias those bits into the set index and leave
// most sets unused. The compaction divides those bits out and is injective
// within a partition, so tags remain unambiguous.
func (m *AddressMap) CacheAddr(lineAddr uint64) uint64 {
	switch m.policy {
	case config.PlaceInterleave:
		return lineAddr / uint64(m.partitions)
	case config.PlaceFirstTouch, config.PlaceRegionAware:
		return lineAddr / uint64(m.partsPerModule)
	}
	panic(fmt.Sprintf("vm: unknown placement policy %v", m.policy))
}

// MappedPages returns the number of pages bound so far.
func (m *AddressMap) MappedPages() int { return m.mapped }

// Audit checks page-table consistency into r. Under page-bound placement:
// every binding event bound exactly one page (fills + region binds +
// prebinds == mapped pages), the mapped-page count and the per-module
// counts agree with the table (their sum == mapped pages), and every owner
// is a real module. Pages are checked in order, so the first violation
// named is the same on every run. Under interleave nothing may have been
// bound at all — a non-zero count there means the placement policy was
// misrouted.
func (m *AddressMap) Audit(r *audit.Reporter) {
	var mapped uint64
	for _, v := range m.pages {
		if v != 0 {
			mapped++
		}
	}
	binds := m.firstTouchFills + m.regionBinds + m.prebinds
	if m.policy == config.PlaceInterleave {
		audit.Equal(r, "vm-pages", "vm", "page binds under interleave placement", binds, uint64(0))
		return
	}
	audit.Equal(r, "vm-pages", "vm", "page binds", binds, mapped)
	audit.Equal(r, "vm-pages", "vm", "mapped-page count", uint64(m.mapped), mapped)
	if m.policy == config.PlaceFirstTouch {
		audit.Equal(r, "vm-pages", "vm", "region binds under first-touch placement", m.regionBinds, uint64(0))
	}
	var sum uint64
	for mod, n := range m.pagesPerModule {
		if n < 0 {
			r.Reportf("vm-pages", "vm", "module %d owns %d pages (negative)", mod, n)
			continue
		}
		sum += uint64(n)
	}
	audit.Equal(r, "vm-pages", "vm", "sum of per-module page counts", sum, mapped)
	modules := len(m.pagesPerModule)
	for page, v := range m.pages {
		if owner := int(v) - 1; v != 0 && (owner < 0 || owner >= modules) {
			r.Reportf("vm-pages", "vm", "page %#x owned by module %d, machine has %d modules", page, owner, modules)
		}
	}
}
