// Package cache implements the set-associative cache model shared by all
// three levels of the MCM-GPU hierarchy: the per-SM L1, the module-side L1.5
// introduced in Section 5.1 of the paper, and the memory-side L2.
//
// The model tracks full set/way state with true LRU replacement, so hit
// rates, capacity effects of the iso-transistor L1.5/L2 rebalancing, and the
// cost of flushing at kernel boundaries are measured rather than assumed.
// Timing is handled by the caller; this package only answers hit/miss and
// eviction questions.
package cache

import (
	"fmt"
	"math/bits"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/stats"
)

// Way entry layout: each way is one uint64 holding tag<<2 | dirty | valid,
// so an all-zero entry is an invalid way and a cleared array is an empty
// cache. Tags therefore must fit in 62 bits (see New).
const (
	flagValid = 1
	flagDirty = 2
	tagShift  = 2
)

// Cache is a set-associative cache with true LRU replacement.
// Ways within a set are kept in recency order (index 0 = MRU), which is
// cheap for the small associativities used here (4–16 ways).
type Cache struct {
	name      string
	lines     []uint64 // way entries, set-major: set s occupies [s*ways, (s+1)*ways)
	setMask   uint64
	setShift  uint
	ways      int
	writeBack bool

	reads      stats.Ratio
	writes     stats.Ratio
	evictions  stats.Counter
	writebacks stats.Counter
}

// New creates a cache holding the given number of lines with the given
// associativity. The line count must yield a power-of-two set count.
// Addresses passed to the cache are line addresses (byte address divided by
// the line size) below 2^62; the cache itself is agnostic to the line size.
// All state lives in one flat array, so New makes two allocations.
func New(name string, lines, ways int, writeBack bool) *Cache {
	if lines <= 0 || ways <= 0 || lines%ways != 0 {
		panic(fmt.Sprintf("cache %q: bad geometry lines=%d ways=%d", name, lines, ways))
	}
	nSets := lines / ways
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %q: set count %d not a power of two", name, nSets))
	}
	return &Cache{
		name:      name,
		lines:     make([]uint64, lines),
		setMask:   uint64(nSets - 1),
		setShift:  uint(bits.TrailingZeros(uint(nSets))),
		ways:      ways,
		writeBack: writeBack,
	}
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Result describes the outcome of an access.
type Result struct {
	Hit bool
	// Evicted reports that a valid line was displaced to make room.
	Evicted bool
	// WritebackAddr is the line address of a dirty victim that must be
	// written to the next level; valid only when NeedsWriteback is true.
	WritebackAddr  uint64
	NeedsWriteback bool
}

// set returns the ways of addr's set, MRU first.
func (c *Cache) set(addr uint64) []uint64 {
	i := int(addr&c.setMask) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// key returns the valid, clean way entry for addr's tag; a way holds addr
// exactly when its entry with the dirty bit masked off equals the key.
func (c *Cache) key(addr uint64) uint64 { return addr>>c.setShift<<tagShift | flagValid }

// find returns the way of s holding key, or -1.
func find(s []uint64, key uint64) int {
	for i, e := range s {
		if e&^flagDirty == key {
			return i
		}
	}
	return -1
}

// touch moves way i of set s to the MRU position.
func touch(s []uint64, i int) {
	if i == 0 {
		return
	}
	e := s[i]
	copy(s[1:i+1], s[0:i])
	s[0] = e
}

// Lookup probes the cache without modifying replacement state or statistics.
func (c *Cache) Lookup(addr uint64) bool {
	return find(c.set(addr), c.key(addr)) >= 0
}

// Access performs a read or write access to the given line address,
// allocating on miss. On a write to a write-back cache the line is marked
// dirty; a write-through cache never holds dirty lines (the caller forwards
// the write downstream). The returned Result reports any dirty victim that
// must be written back.
func (c *Cache) Access(addr uint64, write bool) Result {
	s := c.set(addr)
	key := c.key(addr)
	if i := find(s, key); i >= 0 {
		touch(s, i)
		if write {
			if c.writeBack {
				s[0] |= flagDirty
			}
			c.writes.Observe(true)
		} else {
			c.reads.Observe(true)
		}
		return Result{Hit: true}
	}
	// Miss: fill into the LRU way.
	if write {
		c.writes.Observe(false)
	} else {
		c.reads.Observe(false)
	}
	return c.fill(s, addr&c.setMask, key, write)
}

// Probe performs a read or write access without allocating on miss. It is
// used for allocation-policy filtering (e.g. local accesses bypassing a
// remote-only L1.5 must not disturb its contents or statistics).
func (c *Cache) Probe(addr uint64, write bool) bool {
	s := c.set(addr)
	i := find(s, c.key(addr))
	if i < 0 {
		return false
	}
	touch(s, i)
	if write && c.writeBack {
		s[0] |= flagDirty
	}
	return true
}

// fill inserts key into set s (whose index is setIdx) as MRU, evicting the
// LRU way. The victim's line address is reconstructed from its tag and the
// shared set index.
func (c *Cache) fill(s []uint64, setIdx, key uint64, write bool) Result {
	var res Result
	victim := s[len(s)-1]
	if victim&flagValid != 0 {
		res.Evicted = true
		c.evictions.Inc()
		if victim&flagDirty != 0 {
			res.NeedsWriteback = true
			res.WritebackAddr = victim>>tagShift<<c.setShift | setIdx
			c.writebacks.Inc()
		}
	}
	copy(s[1:], s[:len(s)-1])
	if write && c.writeBack {
		key |= flagDirty
	}
	s[0] = key
	return res
}

// Flush invalidates the entire cache and returns the line addresses of all
// dirty lines in set-major, MRU-first order (write-back caches only; a
// write-through cache never holds one). The paper flushes L1 and L1.5 at
// kernel boundaries to implement software coherence.
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	if c.writeBack {
		for i, e := range c.lines {
			if e&flagDirty != 0 {
				dirty = append(dirty, e>>tagShift<<c.setShift|uint64(i/c.ways))
			}
		}
	}
	clear(c.lines)
	return dirty
}

// Invalidate removes a single line if present, returning whether it was
// dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	s := c.set(addr)
	i := find(s, c.key(addr))
	if i < 0 {
		return false, false
	}
	dirty = s[i]&flagDirty != 0
	copy(s[i:], s[i+1:])
	s[len(s)-1] = 0
	return true, dirty
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, e := range c.lines {
		n += int(e & flagValid)
	}
	return n
}

// HitRate returns the combined read+write hit rate.
func (c *Cache) HitRate() float64 {
	total := c.reads.Total + c.writes.Total
	if total == 0 {
		return 0
	}
	return float64(c.reads.Hits+c.writes.Hits) / float64(total)
}

// ReadHitRate returns the read hit rate.
func (c *Cache) ReadHitRate() float64 { return c.reads.Value() }

// Accesses returns the total number of Access calls.
func (c *Cache) Accesses() uint64 { return c.reads.Total + c.writes.Total }

// Hits returns the total number of hits across reads and writes.
func (c *Cache) Hits() uint64 { return c.reads.Hits + c.writes.Hits }

// ReadAccesses returns the number of read Access calls. The per-direction
// accessors exist for the invariant auditor: access-flow conservation
// (misses leaving one level = demand entering the next) holds separately
// for reads and writes, and combining them would let a read undercount hide
// behind a write overcount.
func (c *Cache) ReadAccesses() uint64 { return c.reads.Total }

// ReadHits returns the number of read hits.
func (c *Cache) ReadHits() uint64 { return c.reads.Hits }

// WriteAccesses returns the number of write Access calls.
func (c *Cache) WriteAccesses() uint64 { return c.writes.Total }

// WriteHits returns the number of write hits.
func (c *Cache) WriteHits() uint64 { return c.writes.Hits }

// Evictions returns the number of valid lines displaced.
func (c *Cache) Evictions() uint64 { return c.evictions.Value() }

// Writebacks returns the number of dirty victims produced.
func (c *Cache) Writebacks() uint64 { return c.writebacks.Value() }

// Audit reports structural invariant violations into r: more valid lines
// than capacity, a malformed LRU stack (a valid way behind an invalid one —
// fill always inserts at MRU and Invalidate compacts, so valid ways form a
// prefix of every set), duplicate tags within a set, dirty lines in a
// write-through cache (footnote 4 of the paper: L1/L1.5 must be
// write-through for software coherence, so a dirty line there means lost
// coherence), and hit counters exceeding access counters.
func (c *Cache) Audit(r *audit.Reporter) {
	occ := 0
	for si := 0; si < c.Sets(); si++ {
		s := c.set(uint64(si))
		invalidAt := -1
		for i, e := range s {
			if e&flagValid == 0 {
				if invalidAt < 0 {
					invalidAt = i
				}
				continue
			}
			occ++
			if invalidAt >= 0 {
				r.Reportf("cache-lru", c.name,
					"set %d: valid line in way %d behind invalid way %d; the LRU stack must keep valid ways as a prefix", si, i, invalidAt)
			}
			if e&flagDirty != 0 && !c.writeBack {
				r.Reportf("cache-write-through", c.name,
					"set %d way %d holds a dirty line in a write-through cache", si, i)
			}
			for j := 0; j < i; j++ {
				if (s[j]^e)&^flagDirty == 0 {
					r.Reportf("cache-dup-tag", c.name,
						"set %d: tag %#x present in ways %d and %d", si, e>>tagShift, j, i)
				}
			}
		}
	}
	capacity := len(c.lines)
	if occ > capacity {
		r.Reportf("cache-occupancy", c.name, "%d valid lines exceed capacity %d", occ, capacity)
	}
	if c.reads.Hits > c.reads.Total {
		r.Reportf("cache-counters", c.name, "read hits %d exceed read accesses %d", c.reads.Hits, c.reads.Total)
	}
	if c.writes.Hits > c.writes.Total {
		r.Reportf("cache-counters", c.name, "write hits %d exceed write accesses %d", c.writes.Hits, c.writes.Total)
	}
}

// ResetStats clears statistics but preserves contents.
func (c *Cache) ResetStats() {
	c.reads.Reset()
	c.writes.Reset()
	c.evictions.Reset()
	c.writebacks.Reset()
}
