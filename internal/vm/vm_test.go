package vm

import (
	"math/rand"
	"testing"
	"testing/quick"

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
	owner, ok := m.pages[10>>m.pageShift]
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
