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

// Way entry layout: each way is one uint32 holding tag<<2 | dirty | valid,
// so an all-zero entry is an invalid way and a cleared array is an empty
// cache. A 16-way set then fits one 64-byte host line. Tags therefore must
// be below tagLimit (see Init).
const (
	flagValid = 1
	flagDirty = 2
	tagShift  = 2
	tagLimit  = 1 << (32 - tagShift)
)

// Cache is a set-associative cache with true LRU replacement.
// Ways within a set are kept in recency order (index 0 = MRU), which is
// cheap for the small associativities used here (4–16 ways).
type Cache struct {
	lines     []uint32 // way entries, set-major: set s occupies [s*ways, (s+1)*ways)
	filled    []uint32 // indices of the sets filled since the last flush
	setMask   uint64
	setShift  uint
	ways      int
	writeBack bool

	reads      stats.Ratio
	writes     stats.Ratio
	writebacks stats.Counter

	format string // the name, with idx for its one verb (see Name)
	idx    int
}

// Init readies c in place as an empty cache over lines, the caller's way
// array: one entry per line of capacity, all zero. sets is the caller's
// storage for the list of filled sets, one entry per set; its contents do
// not matter. The cache owns both arrays from then on, and Init clears
// every counter. With the given associativity the line count must yield a
// power-of-two set count. Addresses passed to the cache are line addresses
// (byte address divided by the line size) below 2^30, so every tag fits a
// way entry whatever the set count; the cache itself is agnostic to the
// line size. Taking the arrays, and a name format and index it formats only
// when the name is read, lets a machine keep its caches in storage it
// recycles, so Init allocates nothing.
func (c *Cache) Init(format string, idx int, lines, sets []uint32, ways int, writeBack bool) {
	*c = Cache{format: format, idx: idx}
	n := len(lines)
	if n == 0 || ways <= 0 || n%ways != 0 {
		panic(fmt.Sprintf("cache %q: bad geometry lines=%d ways=%d", c.Name(), n, ways))
	}
	nSets := n / ways
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %q: set count %d not a power of two", c.Name(), nSets))
	}
	if len(sets) != nSets {
		panic(fmt.Sprintf("cache %q: %d set-list entries for %d sets", c.Name(), len(sets), nSets))
	}
	c.lines = lines
	c.filled = sets[:0]
	c.setMask = uint64(nSets - 1)
	c.setShift = uint(bits.TrailingZeros(uint(nSets)))
	c.ways = ways
	c.writeBack = writeBack
}

// Name returns the cache's name: Init's format with its index, such as
// "sm17-l1".
func (c *Cache) Name() string { return fmt.Sprintf(c.format, c.idx) }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

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
func (c *Cache) set(addr uint64) []uint32 {
	i := int(addr&c.setMask) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// key returns the valid, clean way entry for addr's tag; a way holds addr
// exactly when its entry with the dirty bit masked off equals the key. A tag
// the entry cannot hold means a caller broke Init's address bound.
func (c *Cache) key(addr uint64) uint32 {
	tag := addr >> c.setShift
	if tag >= tagLimit {
		c.badAddr(addr)
	}
	return uint32(tag)<<tagShift | flagValid
}

// badAddr panics for a line address whose tag does not fit a way entry. It
// stays out of line so that key, on every access's path, inlines.
//
//go:noinline
func (c *Cache) badAddr(addr uint64) {
	panic(fmt.Sprintf("cache %q: line address %#x is beyond the way format", c.Name(), addr))
}

// find returns the way of s holding key, or -1.
func find(s []uint32, key uint32) int {
	for i, e := range s {
		if e&^flagDirty == key {
			return i
		}
	}
	return -1
}

// touch moves way i of set s to the MRU position.
func touch(s []uint32, i int) {
	if i == 0 {
		return
	}
	e := s[i]
	copy(s[1:i+1], s[0:i])
	s[0] = e
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
	// Miss: fill into the LRU way. Valid ways form a prefix of every set,
	// so the set is empty exactly when its MRU way is; filling an empty set
	// records it for Flush.
	if write {
		c.writes.Observe(false)
	} else {
		c.reads.Observe(false)
	}
	if s[0] == 0 {
		c.filled = append(c.filled, uint32(addr&c.setMask))
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
func (c *Cache) fill(s []uint32, setIdx uint64, key uint32, write bool) Result {
	var res Result
	victim := s[len(s)-1]
	if victim&flagValid != 0 {
		res.Evicted = true
		if victim&flagDirty != 0 {
			res.NeedsWriteback = true
			res.WritebackAddr = uint64(victim>>tagShift)<<c.setShift | setIdx
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

// Flush invalidates the entire cache by clearing the sets filled since the
// last flush, and discards any dirty lines. The paper flushes the
// write-through L1 and L1.5 at kernel boundaries to implement software
// coherence, so no dirty data moves there; a machine flushes its
// write-back L2s only once their contents no longer matter, to hand back an
// all-zero way array.
func (c *Cache) Flush() {
	for _, si := range c.filled {
		clear(c.set(uint64(si)))
	}
	c.filled = c.filled[:0]
}

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

// Writebacks returns the number of dirty victims produced.
func (c *Cache) Writebacks() uint64 { return c.writebacks.Value() }

// Audit reports structural invariant violations into r: more valid lines
// than capacity, a malformed LRU stack (a valid way behind an invalid one —
// fill always inserts at MRU and Flush clears whole sets, so valid ways form
// a prefix of every set), duplicate tags within a set, dirty lines in a
// write-through cache (footnote 4 of the paper: L1/L1.5 must be
// write-through for software coherence, so a dirty line there means lost
// coherence), a filled set missing from the list Flush clears (it would
// survive the flush), and hit counters exceeding access counters.
func (c *Cache) Audit(r *audit.Reporter) {
	name := c.Name()
	recorded := make([]bool, c.Sets())
	for _, si := range c.filled {
		recorded[si] = true
	}
	occ := 0
	for si := 0; si < c.Sets(); si++ {
		s := c.set(uint64(si))
		if s[0] != 0 && !recorded[si] {
			r.Reportf("cache-filled-sets", name, "set %d holds lines but is not on the list Flush clears", si)
		}
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
				r.Reportf("cache-lru", name,
					"set %d: valid line in way %d behind invalid way %d; the LRU stack must keep valid ways as a prefix", si, i, invalidAt)
			}
			if e&flagDirty != 0 && !c.writeBack {
				r.Reportf("cache-write-through", name,
					"set %d way %d holds a dirty line in a write-through cache", si, i)
			}
			for j := 0; j < i; j++ {
				if (s[j]^e)&^flagDirty == 0 {
					r.Reportf("cache-dup-tag", name,
						"set %d: tag %#x present in ways %d and %d", si, e>>tagShift, j, i)
				}
			}
		}
	}
	capacity := len(c.lines)
	if occ > capacity {
		r.Reportf("cache-occupancy", name, "%d valid lines exceed capacity %d", occ, capacity)
	}
	if c.reads.Hits > c.reads.Total {
		r.Reportf("cache-counters", name, "read hits %d exceed read accesses %d", c.reads.Hits, c.reads.Total)
	}
	if c.writes.Hits > c.writes.Total {
		r.Reportf("cache-counters", name, "write hits %d exceed write accesses %d", c.writes.Hits, c.writes.Total)
	}
}
