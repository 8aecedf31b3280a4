package hw

// refCache is the tick-scan LRU cache this package shipped before sets kept
// LRU ranks, copied unchanged but for its names (and without its sizing
// helpers, its way-returning Access variant and its Contains and
// Invalidate, which the caches it checks no longer have): each way stamps
// its last use with a global tick, a miss scans the set for the first way
// of least tick, and Reset clears the sets listed as installed into.
// FuzzCacheMatchesReference holds Cache, FuzzLLCMatchesReference the LLC
// and FuzzCodeL1IMatchesReference the L1I index to its every hit, miss and
// way index, and FuzzDataWalkMatchesReference runs the data walk over it
// at every level.
type refCache struct {
	ways    []refWay // set s holds ways[s*assoc : (s+1)*assoc]
	setMask uint64
	assoc   int

	// hints holds one MRU hint per set: a shadow copy of the most recently
	// hit way's tag plus that way's index in ways (tag 0 when the hint is
	// invalid). Invariant: a nonzero hints[s].tag is the tag of way
	// hints[s].way, which belongs to set s — every site that installs or
	// invalidates a block restores it, so a shadow match never names a
	// wrong way.
	hints []refSetHint

	// dirty lists the sets installed into since the last Reset, so Reset
	// costs the sets a run filled rather than the cache's capacity. A
	// clean set's first install always lands on its way 0 (the first way
	// of least last-use tick), so that is the only place it is appended
	// (a set whose way 0 was invalidated may be listed twice, which costs
	// Reset one repeated clear).
	dirty []uint32

	hits   uint64
	misses uint64

	tick uint64 // logical LRU clock
}

type refWay struct {
	// tag is block+1, or 0 when the way is invalid. Real keys never wrap:
	// addr.go keeps every line, code-block and page key below 2^32.
	tag  uint64
	used uint64 // last-use tick; 0 = never used (victim scan prefers it)
	ver  uint32 // coherence version the copy was filled at
}

// refSetHint is a set's MRU hint: the shadow tag and the way it shadows.
type refSetHint struct {
	tag uint64 // tag of the most recently hit way, or 0
	way uint32 // index in refCache.ways of the way holding tag
}

// newRefCache builds a cache with the given number of sets and associativity.
// Sets must be a power of two.
func newRefCache(sets, assoc int) *refCache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("hw: cache sets must be a positive power of two")
	}
	if assoc <= 0 {
		panic("hw: cache associativity must be positive")
	}
	return &refCache{
		ways:    make([]refWay, sets*assoc),
		setMask: uint64(sets - 1),
		assoc:   assoc,
		hints:   make([]refSetHint, sets),
	}
}

// Access looks up a block, inserting it on miss (evicting LRU if needed),
// and reports whether it hit. Equivalent to AccessV with version 0.
func (c *refCache) Access(block uint64) bool {
	_, hit := c.access(block, 0)
	return hit
}

// AccessV looks up a block requiring coherence version ver: a resident copy
// filled at an older version is stale (another core wrote the line since)
// and counts as a miss, refilled at ver. This is the model's lightweight
// stand-in for MESI invalidations.
func (c *refCache) AccessV(block uint64, ver uint32) bool {
	_, hit := c.access(block, ver)
	return hit
}

// WriteAccessV is AccessV for a store that just bumped the line's version
// to ver: a copy at ver-1 belongs to this cache's core from its previous
// write or read and is upgraded in place (an M-state rewrite), counting as
// a hit.
func (c *refCache) WriteAccessV(block uint64, ver uint32) bool {
	tag := block + 1
	si := block & c.setMask
	if h := &c.hints[si]; h.tag == tag {
		if w := &c.ways[h.way]; w.ver == ver || w.ver == ver-1 {
			c.tick++
			w.ver = ver
			w.used = c.tick
			c.hits++
			return true
		}
	}
	base := int(si) * c.assoc
	set := c.ways[base : base+c.assoc]
	for i := range set {
		w := &set[i]
		if w.tag == tag && (w.ver == ver || w.ver == ver-1) {
			c.tick++
			w.ver = ver
			w.used = c.tick
			c.hits++
			return true
		}
	}
	return c.AccessV(block, ver)
}

// access is the lookup behind Access and AccessV. The victim of
// a miss is the set's first way with the least last-use tick, so empty
// ways (tick 0) fill in way order before anything is evicted.
func (c *refCache) access(block uint64, ver uint32) (wi int, hit bool) {
	c.tick++
	tag := block + 1
	si := block & c.setMask
	h := &c.hints[si]
	if h.tag == tag {
		if w := &c.ways[h.way]; w.ver == ver {
			w.used = c.tick
			c.hits++
			return int(h.way), true
		}
	}
	base := int(si) * c.assoc
	set := c.ways[base : base+c.assoc]
	vi, vused := 0, ^uint64(0)
	for i := range set {
		w := &set[i]
		if w.tag == tag {
			if w.ver == ver {
				w.used = c.tick
				c.hits++
				return base + i, true
			}
			// Stale copy: refill in place at the current version.
			c.misses++
			w.ver = ver
			w.used = c.tick
			h.tag = tag
			h.way = uint32(base + i)
			return base + i, false
		}
		if w.used < vused {
			vi, vused = i, w.used
		}
	}
	c.misses++
	if vused == 0 && vi == 0 {
		c.dirty = append(c.dirty, uint32(si))
	}
	set[vi] = refWay{tag: tag, used: c.tick, ver: ver}
	h.tag = tag
	h.way = uint32(base + vi)
	return base + vi, false
}

// Reset returns the cache to its just-built state: no contents, no
// statistics. It clears only the sets installed into since the last Reset
// (every set, if that is cheaper).
func (c *refCache) Reset() {
	if len(c.dirty)*c.assoc >= len(c.ways) {
		clear(c.ways)
		clear(c.hints)
	} else {
		for _, s := range c.dirty {
			base := int(s) * c.assoc
			clear(c.ways[base : base+c.assoc])
			c.hints[s] = refSetHint{}
		}
	}
	c.dirty = c.dirty[:0]
	c.hits, c.misses, c.tick = 0, 0, 0
}

// Hits returns the number of hits observed.
func (c *refCache) Hits() uint64 { return c.hits }

// Misses returns the number of misses observed.
func (c *refCache) Misses() uint64 { return c.misses }
