package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcmgpu/internal/audit"
)

// newCache builds a cache of the given geometry over fresh arrays, named
// name-0.
func newCache(name string, lines, ways int, writeBack bool) *Cache {
	c := new(Cache)
	c.Init(name+"-%d", 0, make([]uint32, lines), make([]uint32, lines/ways), ways, writeBack)
	return c
}

// resident reports whether addr is cached, without touching replacement
// state or statistics.
func resident(c *Cache, addr uint64) bool { return find(c.set(addr), c.key(addr)) >= 0 }

// allZero reports whether c is empty as a fresh cache is: every way entry
// zero and no set on the flush list.
func allZero(c *Cache) bool {
	for _, e := range c.lines {
		if e != 0 {
			return false
		}
	}
	return len(c.filled) == 0
}

// occupancy returns the number of valid lines.
func occupancy(c *Cache) int {
	n := 0
	for _, e := range c.lines {
		n += int(e & flagValid)
	}
	return n
}

func TestBasicHitMiss(t *testing.T) {
	c := newCache("l1", 16, 4, false) // 4 sets x 4 ways
	if r := c.Access(0, false); r.Hit {
		t.Fatalf("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatalf("second access missed")
	}
	if c.Hits() != 1 || c.Accesses() != 2 {
		t.Fatalf("Hits/Accesses = %d/%d, want 1/2", c.Hits(), c.Accesses())
	}
	if occupancy(c) != 1 {
		t.Fatalf("occupancy = %d, want 1", occupancy(c))
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache("l1", 8, 2, false) // 4 sets x 2 ways
	// Addresses 0, 4, 8 map to set 0 (mask 3).
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false)      // 0 becomes MRU
	r := c.Access(8, false) // evicts LRU = 4
	if !r.Evicted {
		t.Fatalf("expected eviction")
	}
	if !resident(c, 0) {
		t.Fatalf("LRU policy evicted the MRU line")
	}
	if resident(c, 4) {
		t.Fatalf("line 4 should have been evicted")
	}
	if !resident(c, 8) {
		t.Fatalf("line 8 should be resident")
	}
}

func TestWritebackVictim(t *testing.T) {
	c := newCache("l2", 8, 2, true) // write-back
	c.Access(0, true)               // dirty
	c.Access(4, false)
	r := c.Access(8, false) // evicts 0, which is dirty
	if !r.NeedsWriteback {
		t.Fatalf("dirty victim not reported")
	}
	if r.WritebackAddr != 0 {
		t.Fatalf("WritebackAddr = %d, want 0", r.WritebackAddr)
	}
	if c.Writebacks() != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Writebacks())
	}
}

func TestWritebackAddrReconstruction(t *testing.T) {
	c := newCache("l2", 64, 2, true) // 32 sets
	// Three addresses in set 5 with distinct tags.
	a1 := uint64(5 + 32)
	a2 := uint64(5 + 64)
	a3 := uint64(5 + 96)
	c.Access(a1, true)
	c.Access(a2, true)
	r := c.Access(a3, true)
	if !r.NeedsWriteback || r.WritebackAddr != a1 {
		t.Fatalf("WritebackAddr = %d, want %d", r.WritebackAddr, a1)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := newCache("l15", 8, 2, false)
	c.Access(0, true)
	c.Access(4, true)
	r := c.Access(8, true)
	if r.NeedsWriteback {
		t.Fatalf("write-through cache produced a writeback")
	}
	for i, e := range c.lines {
		if e&flagDirty != 0 {
			t.Fatalf("write-through cache holds a dirty line in way entry %d", i)
		}
	}
}

func TestFlush(t *testing.T) {
	c := newCache("l2", 16, 4, true)
	addrs := []uint64{1, 2, 3, 17}
	for _, a := range addrs {
		c.Access(a, true)
	}
	c.Access(5, false) // clean line
	c.Flush()
	if occupancy(c) != 0 {
		t.Fatalf("occupancy after flush = %d", occupancy(c))
	}
	if resident(c, 1) {
		t.Fatalf("line survived flush")
	}
}

// TestFlushLeavesWayArrayZero pins what a machine's hand-back relies on:
// flushing clears every line it filled, clean or dirty, so the way array
// goes back all zero with nothing left on the flush list. A set filled,
// flushed and filled again is recorded again, and so cleared again.
func TestFlushLeavesWayArrayZero(t *testing.T) {
	for _, wb := range []bool{false, true} {
		c := newCache("sut", 64, 4, wb) // 16 sets x 4 ways
		for a := uint64(0); a < 40; a++ {
			c.Access(a*3, a%2 == 0)
		}
		c.Flush()
		if !allZero(c) {
			t.Fatalf("writeBack=%v: way array or flush list not empty after flush: %v %v", wb, c.lines, c.filled)
		}
		c.Access(7, true)
		c.Flush()
		c.Access(7, true)
		c.Access(7+16, false)
		if !resident(c, 7) || !resident(c, 7+16) || len(c.filled) != 1 {
			t.Fatalf("writeBack=%v: refilled set 7 not resident and recorded once: %v", wb, c.filled)
		}
		c.Flush()
		if !allZero(c) {
			t.Fatalf("writeBack=%v: refilled set survived the flush: %v %v", wb, c.lines, c.filled)
		}
	}
}

// TestTagBeyondFormatPanics pins the guard on the way format: an address
// whose tag needs more than 30 bits is a caller bug, and storing it
// truncated would alias another line.
func TestTagBeyondFormatPanics(t *testing.T) {
	c := newCache("sut", 16, 4, true) // 4 sets: tags are addr>>2
	c.Access(tagLimit<<2-1, true)     // the largest tag that fits
	defer func() {
		if recover() == nil {
			t.Fatal("Access with a tag beyond the way format did not panic")
		}
	}()
	c.Access(tagLimit<<2, false)
}

func TestProbeDoesNotAllocate(t *testing.T) {
	c := newCache("l15", 16, 4, false)
	if c.Probe(9, false) {
		t.Fatalf("probe hit in empty cache")
	}
	if occupancy(c) != 0 {
		t.Fatalf("Probe allocated")
	}
	if c.Accesses() != 0 {
		t.Fatalf("Probe counted as access")
	}
	c.Access(9, false)
	if !c.Probe(9, false) {
		t.Fatalf("probe missed resident line")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ lines, ways, sets int }{{0, 1, 0}, {8, 3, 2}, {24, 2, 12}, {8, 0, 0}, {8, 2, 3}, {8, 2, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Init(lines=%d, sets=%d, ways=%d) did not panic", tc.lines, tc.sets, tc.ways)
				}
			}()
			new(Cache).Init("bad-%d", 0, make([]uint32, tc.lines), make([]uint32, tc.sets), tc.ways, false)
		}()
	}
}

// refLine is one resident line of referenceCache.
type refLine struct {
	addr  uint64
	dirty bool
}

// referenceCache is a trivially correct LRU model used to validate Cache.
type referenceCache struct {
	sets      int
	ways      int
	writeBack bool
	order     map[uint64][]refLine // set -> resident lines, MRU first
}

func newReference(lines, ways int, writeBack bool) *referenceCache {
	return &referenceCache{sets: lines / ways, ways: ways, writeBack: writeBack, order: map[uint64][]refLine{}}
}

// find moves addr to the MRU position of its set, marking it dirty on a
// write-back write, and reports whether it was resident.
func (r *referenceCache) find(addr uint64, write bool) bool {
	set := addr % uint64(r.sets)
	lst := r.order[set]
	for i, l := range lst {
		if l.addr == addr {
			copy(lst[1:i+1], lst[0:i])
			l.dirty = l.dirty || write && r.writeBack
			lst[0] = l
			return true
		}
	}
	return false
}

func (r *referenceCache) access(addr uint64, write bool) Result {
	if r.find(addr, write) {
		return Result{Hit: true}
	}
	set := addr % uint64(r.sets)
	lst := append([]refLine{{addr: addr, dirty: write && r.writeBack}}, r.order[set]...)
	var res Result
	if len(lst) > r.ways {
		victim := lst[r.ways]
		lst = lst[:r.ways]
		res.Evicted = true
		if victim.dirty {
			res.NeedsWriteback, res.WritebackAddr = true, victim.addr
		}
	}
	r.order[set] = lst
	return res
}

func (r *referenceCache) flush() { r.order = map[uint64][]refLine{} }

// Property: Cache agrees exactly with the reference LRU model, write-through
// and write-back, on a random stream of Access, Probe and Flush over line
// addresses spanning the full 30-bit range New documents: every Result
// field (dirty victims included) and every probe outcome. The structural
// audit stays clean throughout, and a final flush leaves the way array all
// zero.
func TestLRUMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		geoms := []struct{ lines, ways int }{{16, 4}, {64, 16}, {32, 1}, {8, 8}}
		g := geoms[rng.Intn(len(geoms))]
		wb := rng.Intn(2) == 0
		c := newCache("sut", g.lines, g.ways, wb)
		ref := newReference(g.lines, g.ways, wb)
		pool := make([]uint64, 2*g.lines)
		for i := range pool {
			pool[i] = rng.Uint64() >> 34
		}
		pool[0], pool[1] = 0, 1<<30-1
		for i := 0; i < int(n); i++ {
			addr := pool[rng.Intn(len(pool))]
			write := rng.Intn(2) == 0
			switch op := rng.Intn(200); {
			case op < 150:
				if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
					t.Logf("seed %d op %d: Access(%#x, %v) = %+v, want %+v", seed, i, addr, write, got, want)
					return false
				}
			case op < 199:
				if got, want := c.Probe(addr, write), ref.find(addr, write); got != want {
					t.Logf("seed %d op %d: Probe(%#x, %v) = %v, want %v", seed, i, addr, write, got, want)
					return false
				}
			default:
				c.Flush()
				ref.flush()
			}
		}
		var a audit.Auditor
		a.Register("cache", audit.Boundary, c.Audit)
		if err := a.Run(audit.Boundary).Err(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		c.Flush()
		return allZero(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInitAndFlushAllocs pins the flat layout's allocation profile: Init
// allocates nothing, since the caller supplies the Cache and its arrays and
// the name is formatted only when read, and flushing a write-through cache
// (the L1 and L1.5 at every kernel boundary) allocates nothing either.
// Re-initializing a used cache also clears its counters and flush list.
func TestInitAndFlushAllocs(t *testing.T) {
	lines, sets := make([]uint32, 1024), make([]uint32, 256)
	var fresh Cache
	if a := testing.AllocsPerRun(20, func() { fresh.Init("sm%d-l1", 17, lines, sets, 4, false) }); a != 0 {
		t.Errorf("Init allocated %v objects, want 0", a)
	}
	if got := fresh.Name(); got != "sm17-l1" {
		t.Errorf("Name() = %q, want sm17-l1", got)
	}
	c := newCache("l1", 1024, 4, false)
	for i := uint64(0); i < 4096; i++ {
		c.Access(i*7, i%3 == 0)
	}
	if a := testing.AllocsPerRun(20, func() {
		c.Access(5, true)
		c.Flush()
	}); a != 0 {
		t.Errorf("write-through Flush allocated %v objects, want 0", a)
	}
	c.Flush()
	c.Init("l1-%d", 1, c.lines, c.filled[:cap(c.filled)], 4, false)
	if c.Accesses() != 0 || c.ReadHits() != 0 || c.Writebacks() != 0 || !allZero(c) {
		t.Errorf("re-initialized cache kept state: %d accesses, %d read hits, %d writebacks, empty %v",
			c.Accesses(), c.ReadHits(), c.Writebacks(), allZero(c))
	}
}

// Property: occupancy never exceeds capacity and a working set no larger
// than one set's ways (all mapping to the same set) never misses after the
// first touch.
func TestSetResidencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCache("sut", 64, 4, false) // 16 sets x 4 ways
		// 4 addresses that all map to set 3.
		addrs := []uint64{3, 3 + 16, 3 + 32, 3 + 48}
		for _, a := range addrs {
			c.Access(a, false)
		}
		for i := 0; i < 100; i++ {
			a := addrs[rng.Intn(len(addrs))]
			if !c.Access(a, false).Hit {
				return false
			}
		}
		return occupancy(c) <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := newCache("l2", 32768, 16, true)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(65536))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], i%4 == 0)
	}
}
