package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mcmgpu/internal/audit"
)

func TestBasicHitMiss(t *testing.T) {
	c := New("l1", 16, 4, false) // 4 sets x 4 ways
	if r := c.Access(0, false); r.Hit {
		t.Fatalf("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatalf("second access missed")
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", c.HitRate())
	}
	if c.Occupancy() != 1 {
		t.Fatalf("Occupancy = %d, want 1", c.Occupancy())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("l1", 8, 2, false) // 4 sets x 2 ways
	// Addresses 0, 4, 8 map to set 0 (mask 3).
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false)      // 0 becomes MRU
	r := c.Access(8, false) // evicts LRU = 4
	if !r.Evicted {
		t.Fatalf("expected eviction")
	}
	if !c.Lookup(0) {
		t.Fatalf("LRU policy evicted the MRU line")
	}
	if c.Lookup(4) {
		t.Fatalf("line 4 should have been evicted")
	}
	if !c.Lookup(8) {
		t.Fatalf("line 8 should be resident")
	}
}

func TestWritebackVictim(t *testing.T) {
	c := New("l2", 8, 2, true) // write-back
	c.Access(0, true)          // dirty
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
	c := New("l2", 64, 2, true) // 32 sets
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
	c := New("l15", 8, 2, false)
	c.Access(0, true)
	c.Access(4, true)
	r := c.Access(8, true)
	if r.NeedsWriteback {
		t.Fatalf("write-through cache produced a writeback")
	}
	if dirty := c.Flush(); len(dirty) != 0 {
		t.Fatalf("write-through flush returned %d dirty lines", len(dirty))
	}
}

func TestFlush(t *testing.T) {
	c := New("l2", 16, 4, true)
	addrs := []uint64{1, 2, 3, 17}
	for _, a := range addrs {
		c.Access(a, true)
	}
	c.Access(5, false) // clean line
	dirty := c.Flush()
	if len(dirty) != len(addrs) {
		t.Fatalf("Flush returned %d dirty lines, want %d", len(dirty), len(addrs))
	}
	seen := map[uint64]bool{}
	for _, a := range dirty {
		seen[a] = true
	}
	for _, a := range addrs {
		if !seen[a] {
			t.Fatalf("dirty line %d missing from flush set %v", a, dirty)
		}
	}
	if c.Occupancy() != 0 {
		t.Fatalf("Occupancy after flush = %d", c.Occupancy())
	}
	if c.Lookup(1) {
		t.Fatalf("line survived flush")
	}
}

func TestInvalidate(t *testing.T) {
	c := New("l1", 16, 4, true)
	c.Access(7, true)
	present, dirty := c.Invalidate(7)
	if !present || !dirty {
		t.Fatalf("Invalidate(7) = %v,%v; want true,true", present, dirty)
	}
	present, _ = c.Invalidate(7)
	if present {
		t.Fatalf("line present after invalidation")
	}
	if c.Lookup(7) {
		t.Fatalf("Lookup finds invalidated line")
	}
}

func TestProbeDoesNotAllocate(t *testing.T) {
	c := New("l15", 16, 4, false)
	if c.Probe(9, false) {
		t.Fatalf("probe hit in empty cache")
	}
	if c.Occupancy() != 0 {
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
	for _, tc := range []struct{ lines, ways int }{{0, 1}, {8, 3}, {24, 2}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(lines=%d, ways=%d) did not panic", tc.lines, tc.ways)
				}
			}()
			New("bad", tc.lines, tc.ways, false)
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

func (r *referenceCache) invalidate(addr uint64) (present, dirty bool) {
	set := addr % uint64(r.sets)
	lst := r.order[set]
	for i, l := range lst {
		if l.addr == addr {
			r.order[set] = append(lst[:i:i], lst[i+1:]...)
			return true, l.dirty
		}
	}
	return false, false
}

func (r *referenceCache) flush() []uint64 {
	var dirty []uint64
	for set := 0; set < r.sets; set++ {
		for _, l := range r.order[uint64(set)] {
			if l.dirty {
				dirty = append(dirty, l.addr)
			}
		}
	}
	r.order = map[uint64][]refLine{}
	return dirty
}

// Property: Cache agrees exactly with the reference LRU model, write-through
// and write-back, on a random stream of Access, Probe, Invalidate and Flush
// over line addresses spanning the full 62-bit range New documents: every
// Result field, every probe and invalidation outcome, and every flush's
// dirty list in order. The structural audit stays clean throughout.
func TestLRUMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		geoms := []struct{ lines, ways int }{{16, 4}, {64, 16}, {32, 1}, {8, 8}}
		g := geoms[rng.Intn(len(geoms))]
		wb := rng.Intn(2) == 0
		c := New("sut", g.lines, g.ways, wb)
		ref := newReference(g.lines, g.ways, wb)
		pool := make([]uint64, 2*g.lines)
		for i := range pool {
			pool[i] = rng.Uint64() >> 2
		}
		pool[0], pool[1] = 0, 1<<62-1
		for i := 0; i < int(n); i++ {
			addr := pool[rng.Intn(len(pool))]
			write := rng.Intn(2) == 0
			switch op := rng.Intn(200); {
			case op < 150:
				if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
					t.Logf("seed %d op %d: Access(%#x, %v) = %+v, want %+v", seed, i, addr, write, got, want)
					return false
				}
			case op < 180:
				if got, want := c.Probe(addr, write), ref.find(addr, write); got != want {
					t.Logf("seed %d op %d: Probe(%#x, %v) = %v, want %v", seed, i, addr, write, got, want)
					return false
				}
			case op < 199:
				gp, gd := c.Invalidate(addr)
				if wp, wd := ref.invalidate(addr); gp != wp || gd != wd {
					t.Logf("seed %d op %d: Invalidate(%#x) = %v,%v, want %v,%v", seed, i, addr, gp, gd, wp, wd)
					return false
				}
			default:
				if got, want := c.Flush(), ref.flush(); !reflect.DeepEqual(got, want) {
					t.Logf("seed %d op %d: Flush = %#x, want %#x", seed, i, got, want)
					return false
				}
			}
		}
		var r audit.Reporter
		c.Audit(&r)
		if err := r.Violations().Err(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return reflect.DeepEqual(c.Flush(), ref.flush())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNewAndFlushAllocs pins the flat layout's allocation profile: New makes
// the Cache and its one way array, and flushing a write-through cache (the
// L1 and L1.5 at every kernel boundary) allocates nothing.
func TestNewAndFlushAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(20, func() { New("l1", 1024, 4, false) }); a > 2 {
		t.Errorf("New allocated %v objects, want <= 2", a)
	}
	c := New("l1", 1024, 4, false)
	for i := uint64(0); i < 4096; i++ {
		c.Access(i*7, i%3 == 0)
	}
	if a := testing.AllocsPerRun(20, func() {
		c.Access(5, true)
		c.Flush()
	}); a != 0 {
		t.Errorf("write-through Flush allocated %v objects, want 0", a)
	}
}

// Property: occupancy never exceeds capacity and a working set no larger
// than one set's ways (all mapping to the same set) never misses after the
// first touch.
func TestSetResidencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("sut", 64, 4, false) // 16 sets x 4 ways
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
		return c.Occupancy() <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	c := New("l1", 16, 4, false)
	c.Access(1, false)
	c.Access(1, false)
	c.ResetStats()
	if c.Accesses() != 0 || c.HitRate() != 0 {
		t.Fatalf("stats survived reset")
	}
	if !c.Lookup(1) {
		t.Fatalf("ResetStats cleared contents")
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New("l2", 32768, 16, true)
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
