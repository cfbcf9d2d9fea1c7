package vm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/config"
)

func interleaveMap() *AddressMap {
	return NewAddressMap(config.BaselineMCM())
}

func firstTouchMap() *AddressMap {
	c := config.BaselineMCM()
	c.Placement = config.PlaceFirstTouch
	return NewAddressMap(c)
}

func TestInterleaveRoundRobin(t *testing.T) {
	m := interleaveMap()
	for i := uint64(0); i < 64; i++ {
		want := int(i % 4)
		if got := m.Partition(i, 2); got != want {
			t.Fatalf("Partition(%d) = %d, want %d", i, got, want)
		}
	}
	if m.MappedPages() != 0 {
		t.Fatalf("interleave policy mapped pages")
	}
}

func TestFirstTouchBindsToToucher(t *testing.T) {
	m := firstTouchMap()
	// 4 KB pages, 128 B lines: 32 lines per page. Line 0 is in page 0.
	p := m.Partition(0, 3)
	if p != 3 {
		t.Fatalf("first touch from module 3 placed page in partition %d", p)
	}
	// Any other module touching the same page still goes to module 3.
	if got := m.Partition(1, 0); got != 3 {
		t.Fatalf("second toucher moved the page: partition %d", got)
	}
	owner, ok := m.owner(10 >> m.pageShift)
	if !ok || owner != 3 {
		t.Fatalf("owner of line 10's page = %d,%v; want 3,true", owner, ok)
	}
	if m.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1", m.MappedPages())
	}
	if got := m.pagesPerModule[3]; got != 1 {
		t.Fatalf("pagesPerModule[3] = %d, want 1", got)
	}
}

func TestFirstTouchDistinctPages(t *testing.T) {
	m := firstTouchMap()
	linesPerPage := uint64(4 * 1024 / 128)
	for mod := 0; mod < 4; mod++ {
		addr := uint64(mod) * linesPerPage
		if got := m.Partition(addr, mod); got != mod {
			t.Fatalf("page %d: partition %d, want %d", mod, got, mod)
		}
	}
	if m.MappedPages() != 4 {
		t.Fatalf("MappedPages = %d, want 4", m.MappedPages())
	}
}

func TestFirstTouchMultiPartitionModules(t *testing.T) {
	c := config.MultiGPUBaseline() // 2 modules x 2 partitions
	m := NewAddressMap(c)
	// Module 1 touches page 0; its lines must land in partitions 2 or 3 and
	// be interleaved across both.
	seen := map[int]bool{}
	for i := uint64(0); i < 8; i++ {
		p := m.Partition(i, 1)
		if p != 2 && p != 3 {
			t.Fatalf("line %d landed in partition %d, not module 1's partitions", i, p)
		}
		seen[p] = true
	}
	if !seen[2] || !seen[3] {
		t.Fatalf("page lines not interleaved across module partitions: %v", seen)
	}
}

// Property: partitions are always in range, and under first touch the
// mapping is stable (same line always lands in the same partition no matter
// which module asks later).
func TestPartitionStableProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := firstTouchMap()
		first := map[uint64]int{}
		for i := 0; i < int(n)+1; i++ {
			addr := uint64(rng.Intn(1 << 16))
			mod := rng.Intn(4)
			p := m.Partition(addr, mod)
			if p < 0 || p >= 4 {
				return false
			}
			if prev, ok := first[addr]; ok && prev != p {
				return false
			}
			first[addr] = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: interleave spreads any dense address range evenly: partition
// counts over N consecutive lines differ by at most 1.
func TestInterleaveBalanceProperty(t *testing.T) {
	f := func(start uint32, n uint16) bool {
		m := interleaveMap()
		counts := make([]int, 4)
		for i := uint64(0); i < uint64(n); i++ {
			counts[m.Partition(uint64(start)+i, 0)]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// auditErr runs m's page-table audit and returns its error, nil when clean.
func auditErr(m *AddressMap) error {
	var a audit.Auditor
	a.Register("vm", audit.Boundary, m.Audit)
	return a.Run(audit.Boundary).Err()
}

// TestAuditNamesLowestBadPage pins the audit's determinism: with two pages
// owned by modules the machine lacks, the error names the lower page, and
// says the same on every run.
func TestAuditNamesLowestBadPage(t *testing.T) {
	var first string
	for run := 0; run < 20; run++ {
		m := firstTouchMap()
		for page := uint64(0); page < 64; page++ {
			m.Prebind(page, int(page)%4)
		}
		m.pages[41] = 7 + 1
		m.pages[9] = 5 + 1
		err := auditErr(m)
		if err == nil {
			t.Fatal("audit accepted pages owned by nonexistent modules")
		}
		if !strings.Contains(err.Error(), "page 0x9 owned by module 5") {
			t.Fatalf("audit error does not name the lower bad page first: %v", err)
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("audit error changed between runs:\n%s\n%s", first, err.Error())
		}
	}
}

// TestPageTableGrowsOnDemand binds pages in a scattered order, some past
// the table's current end, and requires the table to grow and every binding
// to stick.
func TestPageTableGrowsOnDemand(t *testing.T) {
	m := firstTouchMap()
	pages := []uint64{0, 1000, 3, 70000, 999}
	for i, page := range pages {
		before := len(m.pages)
		m.Partition(page<<m.pageShift, i%4)
		if page >= uint64(before) && uint64(len(m.pages)) <= page {
			t.Fatalf("binding page %d past the table's %d entries left it at %d", page, before, len(m.pages))
		}
	}
	for i, page := range pages {
		if owner, ok := m.owner(page); !ok || owner != i%4 {
			t.Fatalf("page %d: owner %d,%v; want %d,true", page, owner, ok, i%4)
		}
	}
	if m.MappedPages() != len(pages) {
		t.Fatalf("MappedPages = %d, want %d", m.MappedPages(), len(pages))
	}
	if err := auditErr(m); err != nil {
		t.Fatal(err)
	}
}

// TestPrebindMappedPageIsNoOp: a page the init sweep (or an earlier touch)
// already bound keeps its owner and its counts.
func TestPrebindMappedPageIsNoOp(t *testing.T) {
	m := firstTouchMap()
	m.Prebind(5, 2)
	m.Partition(6<<m.pageShift, 1)
	m.Prebind(5, 3)
	m.Prebind(6, 0)
	for page, want := range map[uint64]int{5: 2, 6: 1} {
		if owner, _ := m.owner(page); owner != want {
			t.Fatalf("page %d owner = %d, want %d", page, owner, want)
		}
	}
	if m.MappedPages() != 2 || m.prebinds != 1 || m.firstTouchFills != 1 {
		t.Fatalf("mapped %d, prebinds %d, fills %d; want 2, 1, 1", m.MappedPages(), m.prebinds, m.firstTouchFills)
	}
	if got := m.pagesPerModule; got[0] != 0 || got[1] != 1 || got[2] != 1 || got[3] != 0 {
		t.Fatalf("pagesPerModule = %v, want [0 1 1 0]", got)
	}
}

// Property: under first-touch and region-aware placement, MappedPages and
// the per-module counts equal a recount of the table after any sequence of
// prebinds and touches, and the audit stays clean.
func TestPageCountsProperty(t *testing.T) {
	f := func(seed int64, regionAware bool) bool {
		rng := rand.New(rand.NewSource(seed))
		c := config.BaselineMCM()
		c.Placement = config.PlaceFirstTouch
		if regionAware {
			c.Placement = config.PlaceRegionAware
		}
		m := NewAddressMap(c)
		// Region pages are the multiples of 3, homed on page%4.
		m.SetBinder(func(page uint64) int {
			if page%3 == 0 {
				return int(page % 4)
			}
			return -1
		})
		for i := 0; i < 300; i++ {
			page := uint64(rng.Intn(512))
			if rng.Intn(4) == 0 {
				m.Prebind(page, rng.Intn(4))
			} else {
				m.Partition(page<<m.pageShift|uint64(rng.Intn(32)), rng.Intn(4))
			}
		}
		perModule := make([]int, 4)
		mapped := 0
		for page := range m.pages {
			if owner, ok := m.owner(uint64(page)); ok {
				perModule[owner]++
				mapped++
			}
		}
		for mod, n := range perModule {
			if m.pagesPerModule[mod] != n {
				return false
			}
		}
		return m.MappedPages() == mapped && (regionAware || m.regionBinds == 0) && auditErr(m) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
