package hw

// Cache is a set-associative cache with LRU replacement. Keys are block
// numbers (the caller chooses the granularity: 64 B lines for data, 512 B
// blocks for instructions, 4 KB pages for TLBs). The zero value is not
// usable; construct with NewCache.
//
// The model is the simulator's hottest code: every simulated memory access
// probes up to four levels. All ways live in one set-major array of
// pointer-free structs, and a way's tag is its block plus one, so a zeroed
// way is an invalid one: a new cache needs no initialization pass, the
// garbage collector never scans it, and pages of a large cache that are
// never probed are never touched.
//
// Each set keeps an MRU way hint — the way of its most recent hit — plus a
// shadow copy of that way's tag in a set-indexed array. A lookup probes the
// shadow tag first: a probe hit (the common case for the looping code
// fetches the simulator issues) touches only the hinted way, while a probe
// miss costs one set-indexed compare and a predictable branch before the
// ordinary scan, so hint-averse access patterns (round-robin probing where
// consecutive lookups in a set never repeat a block) pay almost nothing for
// it. The probe never decides a lookup by itself: hints[s].tag always
// mirrors the hinted way's tag, so a shadow-tag match is exactly a tag
// match, and hit/miss/eviction decisions — and therefore simulation
// results — stay bit-identical to the plain scan.
type Cache struct {
	ways    []way // set s holds ways[s*assoc : (s+1)*assoc]
	setMask uint64
	assoc   int

	// hints holds one MRU hint per set: a shadow copy of the most recently
	// hit way's tag plus that way's index in ways (tag 0 when the hint is
	// invalid). Invariant: a nonzero hints[s].tag is the tag of way
	// hints[s].way, which belongs to set s — every site that installs or
	// invalidates a block restores it, so a shadow match never names a
	// wrong way.
	hints []setHint

	// dirty lists the sets installed into since the last Reset, so Reset
	// costs the sets a run filled rather than the cache's capacity. A
	// clean set's first install always lands on its way 0 (the first way
	// of least last-use tick), so that is the only place it is appended
	// (a set whose way 0 was invalidated may be listed twice, which costs
	// Reset one repeated clear).
	dirty []uint32

	blockBytes int // granularity CacheFor was sized with (0 if NewCache)

	hits   uint64
	misses uint64

	tick uint64 // logical LRU clock
}

type way struct {
	// tag is block+1, or 0 when the way is invalid. Real keys never wrap:
	// data and code blocks are addresses divided by the block size
	// (< 2^49), pages < 2^36.
	tag  uint64
	used uint64 // last-use tick; 0 = never used (victim scan prefers it)
	ver  uint32 // coherence version the copy was filled at
}

// setHint is a set's MRU hint: the shadow tag and the way it shadows.
type setHint struct {
	tag uint64 // tag of the most recently hit way, or 0
	way uint32 // index in Cache.ways of the way holding tag
}

// NewCache builds a cache with the given number of sets and associativity.
// Sets must be a power of two.
func NewCache(sets, assoc int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("hw: cache sets must be a positive power of two")
	}
	if assoc <= 0 {
		panic("hw: cache associativity must be positive")
	}
	return &Cache{
		ways:    make([]way, sets*assoc),
		setMask: uint64(sets - 1),
		assoc:   assoc,
		hints:   make([]setHint, sets),
	}
}

// CacheFor builds a cache sized capacityBytes with blockBytes blocks and the
// given associativity. Because the set count must be a power of two, the
// requested capacity is rounded DOWN to the nearest power-of-two set count:
// a capacity whose set count is not a power of two can shed up to half the
// requested bytes (e.g. a 24 MB, 20-way, 64 B-line request yields 16384
// sets and only 20 MB effective). Check EffectiveBytes when sizing caches;
// every Table III level divides exactly and loses nothing.
func CacheFor(capacityBytes, blockBytes, assoc int) *Cache {
	blocks := capacityBytes / blockBytes
	sets := blocks / assoc
	if sets == 0 {
		sets = 1
	}
	// Round down to a power of two.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	c := NewCache(p, assoc)
	c.blockBytes = blockBytes
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// EffectiveBytes returns the capacity the cache actually indexes
// (sets x assoc x block bytes) after CacheFor's power-of-two set rounding.
// It returns 0 for caches built directly with NewCache, which have no byte
// granularity (e.g. TLBs keyed by page number).
func (c *Cache) EffectiveBytes() int {
	return c.Sets() * c.assoc * c.blockBytes
}

// Access looks up a block, inserting it on miss (evicting LRU if needed),
// and reports whether it hit. Equivalent to AccessV with version 0.
//
//dsp:hotpath
func (c *Cache) Access(block uint64) bool {
	_, hit := c.access(block, 0)
	return hit
}

// AccessWay is Access that also returns the index of the way now holding
// the block, in [0, Sets()*Assoc()): a miss filled that way, evicting
// whatever it held. The machine keys its decoded-µop cache on L1I ways.
//
//dsp:hotpath
func (c *Cache) AccessWay(block uint64) (way int, hit bool) {
	return c.access(block, 0)
}

// AccessV looks up a block requiring coherence version ver: a resident copy
// filled at an older version is stale (another core wrote the line since)
// and counts as a miss, refilled at ver. This is the model's lightweight
// stand-in for MESI invalidations.
//
//dsp:hotpath
func (c *Cache) AccessV(block uint64, ver uint32) bool {
	_, hit := c.access(block, ver)
	return hit
}

// WriteAccessV is AccessV for a store that just bumped the line's version
// to ver: a copy at ver-1 belongs to this cache's core from its previous
// write or read and is upgraded in place (an M-state rewrite), counting as
// a hit.
//
//dsp:hotpath
func (c *Cache) WriteAccessV(block uint64, ver uint32) bool {
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

// access is the lookup behind Access, AccessWay and AccessV. The victim of
// a miss is the set's first way with the least last-use tick, so empty
// ways (tick 0) fill in way order before anything is evicted.
//
//dsp:hotpath
func (c *Cache) access(block uint64, ver uint32) (wi int, hit bool) {
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
	set[vi] = way{tag: tag, used: c.tick, ver: ver}
	h.tag = tag
	h.way = uint32(base + vi)
	return base + vi, false
}

// Contains reports whether a block is resident without touching LRU state.
func (c *Cache) Contains(block uint64) bool {
	base := int(block&c.setMask) * c.assoc
	for _, w := range c.ways[base : base+c.assoc] {
		if w.tag == block+1 {
			return true
		}
	}
	return false
}

// Invalidate removes a block if present. If the set's shadow tag named
// this block it is cleared (a block resides in at most one way, so the
// hint necessarily points at the emptied way); probes then fall through to
// the scan until the next hit or install re-arms the hint.
func (c *Cache) Invalidate(block uint64) {
	si := block & c.setMask
	if h := &c.hints[si]; h.tag == block+1 {
		h.tag = 0
	}
	base := int(si) * c.assoc
	set := c.ways[base : base+c.assoc]
	for i := range set {
		if set[i].tag == block+1 {
			set[i] = way{}
			return
		}
	}
}

// Reset returns the cache to its just-built state: no contents, no
// statistics. It clears only the sets installed into since the last Reset
// (every set, if that is cheaper).
func (c *Cache) Reset() {
	if len(c.dirty)*c.assoc >= len(c.ways) {
		clear(c.ways)
		clear(c.hints)
	} else {
		for _, s := range c.dirty {
			base := int(s) * c.assoc
			clear(c.ways[base : base+c.assoc])
			c.hints[s] = setHint{}
		}
	}
	c.dirty = c.dirty[:0]
	c.hits, c.misses, c.tick = 0, 0, 0
}

// Hits returns the number of hits observed.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses observed.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRate returns misses / accesses (0 when no accesses).
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}
