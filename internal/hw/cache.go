package hw

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative cache with LRU replacement and at most
// narrowWays ways per set: a core's L1D and L2 and its TLBs. (A socket's
// wider LLC is a lastLevelCache.) Keys are block numbers (the caller
// chooses the granularity: 64 B lines for data, 512 B blocks for
// instructions, 4 KB pages for TLBs). The zero value is not usable;
// construct with NewCache.
//
// The model is the simulator's hottest code: every simulated memory access
// probes up to four levels, and the L2 arrays are large enough to miss the
// host's own caches. So each set keeps its LRU order as a rank per way (0
// is the most recently used) in its 16-byte head, a miss reads its victim
// off the ranks instead of scanning for the least recent use, and a probe
// touches as few host cache lines as the layout allows. The head holds one
// fingerprint byte and one rank nibble per way and the set's generation
// stamp. The ways are 8-byte {tag, version} pairs, and a probe reads only
// the ways whose fingerprint matches. A tag is the whole key, so keys must
// be below 2^32, as every line, code-block and page key of addr.go's
// layout is; installing a larger one panics.
//
// A miss fills the set's lowest-index empty way, else its way of rank
// assoc-1: the set's first way of least last use, as a cache stamping
// each use with a tick picks it. All arrays are pointer-free, so the
// garbage collector never scans them and pages of a large cache that are
// never probed are never touched. Reset bumps the cache's generation; a
// set stamped with an older one is empty and is rebuilt on its first
// probe, so a reset costs nothing per set.
//
// A cache can also keep one MRU word per set: the key of the set's most
// recently used way plus one while that way's copy is at version 0, else
// 0. Most probes of a TLB, and most code probes of an L2, are of the block
// their set used last, so a version-0 probe that matches the word counts
// its hit and returns without reading the set: the block is resident at
// rank 0 and version 0, so a full probe would change nothing.
type Cache struct {
	setMask uint64
	assoc   int
	gen     uint32 // the current generation; a set stamped otherwise is empty
	rank0   uint32 // a fresh set's rank nibbles; see narrowRank0

	heads []setHead // one per set
	ways  []way     // set s holds ways[s*assoc : (s+1)*assoc]
	mru   []uint64  // one MRU word per set, or nil

	hits   uint64
	misses uint64
}

// narrowWays is the most ways a Cache set keeps behind its fingerprint
// head.
const narrowWays = 8

// setHead is a set's fingerprints, LRU ranks and generation stamp.
type setHead struct {
	fp   uint64 // byte i: way i's fingerprint (top bit set), 0 if way i is empty
	rank uint32 // nibble i: way i's LRU rank
	gen  uint32
}

// way is a set's way: the block it holds and the coherence version
// the copy was filled at. It is meaningful only while its fingerprint lane
// is nonzero.
type way struct {
	tag uint32
	ver uint32
}

// Lane constants for the word-wide (SWAR) set operations: a one in each
// lane, each lane's top bit and each lane's bits below its top bit, for the
// byte lanes of a 64-bit fingerprint word and the byte and nibble lanes of
// a 32-bit rank word.
const (
	ones64 = 0x0101010101010101
	ones32 = 0x01010101
	high32 = 0x80808080
	low32  = 0x7F7F7F7F
	onesN  = 0x11111111
	highN  = 0x88888888
	lowN   = 0x77777777
)

// NewCache builds a cache with the given number of sets and associativity,
// keeping MRU words. Sets must be a power of two and the associativity at
// most narrowWays.
func NewCache(sets, assoc int) *Cache { return newCache(sets, assoc, true) }

// newCache is NewCache with the choice of MRU words.
func newCache(sets, assoc int, mru bool) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("hw: cache sets must be a positive power of two")
	}
	if assoc <= 0 || assoc > narrowWays {
		panic(fmt.Sprintf("hw: cache associativity must be in [1, %d]; a wider LLC is a lastLevelCache", narrowWays))
	}
	c := &Cache{
		setMask: uint64(sets - 1),
		assoc:   assoc,
		gen:     1,
		rank0:   narrowRank0(assoc),
		heads:   make([]setHead, sets),
		ways:    make([]way, sets*assoc),
	}
	if mru {
		c.mru = make([]uint64, sets)
	}
	return c
}

// narrowRank0 returns the rank nibbles of a fresh set of assoc ways: way i
// has rank i, and lanes at or above assoc hold 0xF, which no rank update or
// victim search matches.
func narrowRank0(assoc int) uint32 {
	var r uint32
	for i := 0; i < narrowWays; i++ {
		lane := uint32(0xF)
		if i < assoc {
			lane = uint32(i)
		}
		r |= lane << (4 * i)
	}
	return r
}

// cacheFor builds a cache of the given shape, with the choice of MRU
// words. Because the set count must be a power of two, the requested
// capacity is rounded DOWN to the nearest power-of-two set count: a
// capacity whose set count is not a power of two can shed up to half the
// requested bytes (e.g. a 384 KB, 8-way, 64 B-line request yields 512 sets
// and only 256 KB effective). Every Table III level divides exactly and
// loses nothing.
func cacheFor(cs CacheSpec, mru bool) *Cache {
	return newCache(floorPow2(cs.CapacityBytes/cs.BlockBytes/cs.Assoc), cs.Assoc, mru)
}

// floorPow2 returns the largest power of two not above n, or 1 if n < 2.
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// Access looks up a block at version 0, inserting it on miss (evicting LRU
// if needed), and reports whether it hit.
//
//dsp:hotpath
func (c *Cache) Access(block uint64) bool {
	return c.mruHit(block) || c.lookup(block)
}

// lookup is Access without the MRU word's check.
//
//dsp:hotpath
func (c *Cache) lookup(block uint64) bool {
	_, hit := c.access(block, 0, false)
	return hit
}

// mruWord reports whether block's set keeps an MRU word naming it, so that
// a version-0 probe of block would hit and change nothing but the count.
//
//dsp:hotpath
func (c *Cache) mruWord(block uint64) bool {
	return c.mru != nil && c.mru[block&c.setMask] == block+1
}

// mruHit counts a version-0 probe of block as a hit and reports true if
// mruWord(block).
//
//dsp:hotpath
func (c *Cache) mruHit(block uint64) bool {
	if !c.mruWord(block) {
		return false
	}
	c.hits++
	return true
}

// access looks up a block requiring coherence version ver, the lookup
// behind every probe. A resident copy at ver hits. So does, for a write
// (a store that just bumped the line's version to ver), a copy at ver-1:
// it belongs to this cache's core from its previous write or read and is
// upgraded in place, an M-state rewrite. Any other resident copy is stale
// (another core wrote the line since): it counts a miss and is refilled in
// place at ver, the model's lightweight stand-in for MESI invalidations.
// An absent block is installed in the set's victim way. Either way the
// block's way becomes the set's most recently used. It returns that way's
// index, in [0, sets*assoc), and whether the probe hit.
//
//dsp:hotpath
func (c *Cache) access(block uint64, ver uint32, write bool) (wi int, hit bool) {
	si := block & c.setMask
	h := &c.heads[si]
	if h.gen != c.gen {
		*h = setHead{rank: c.rank0, gen: c.gen}
	}
	base := int(si) * c.assoc
	fp := fingerprint(block)
	i := c.findNarrow(h, base, block, fp)
	if i >= 0 {
		w := &c.ways[base+i]
		hit = w.ver == ver || write && w.ver == ver-1
		w.ver = ver
	} else {
		if e := ^h.fp & c.fpMask(); e != 0 { // an empty lane's top bit is clear
			i = bits.TrailingZeros64(e) >> 3
		} else {
			i = nibbleLane(h.rank, uint32(c.assoc-1))
		}
		if block > maxTag {
			tagTooLarge(block)
		}
		sh := uint(8 * i)
		h.fp = h.fp&^(0xFF<<sh) | fp&(0xFF<<sh)
		c.ways[base+i] = way{tag: uint32(block), ver: ver}
	}
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	if sh := uint(4 * i); h.rank>>sh&0xF != 0 {
		h.rank = promoteNibble(h.rank, sh)
	}
	if c.mru != nil {
		// The block is now the set's most recently used, at version ver.
		w := uint64(0)
		if ver == 0 {
			w = block + 1
		}
		c.mru[si] = w
	}
	return base + i, hit
}

// maxTag is the largest key a way's 32-bit tag holds.
const maxTag = 1<<32 - 1

// tagTooLarge panics: a key beyond the 32-bit tags is a caller's bug that
// would otherwise alias another block.
func tagTooLarge(block uint64) {
	panic(fmt.Sprintf("hw: block %#x does not fit a cache way's 32-bit tag", block))
}

// findNarrow returns the way of set h (whose ways start at base) that
// holds block, or -1. fp is the block's fingerprint in every lane. The
// candidates are the lanes whose byte of h.fp^fp is zero, found by testing
// each byte's top bit of (x-1)&^x. A borrow can also flag the lane of a
// full way above a true candidate; its tag compare rejects it. The compare
// is at 64 bits, so a key above maxTag matches no way and misses.
//
//dsp:hotpath
func (c *Cache) findNarrow(h *setHead, base int, block, fp uint64) int {
	x := h.fp ^ fp
	for m := (x - ones64) &^ x & c.fpMask(); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m) >> 3
		if uint64(c.ways[base+i].tag) == block {
			return i
		}
	}
	return -1
}

// fpMask returns a set's fingerprint lanes in use: the top bit of each
// byte lane below the associativity.
//
//dsp:hotpath
func (c *Cache) fpMask() uint64 {
	return 0x8080808080808080 >> (64 - 8*uint(c.assoc))
}

// fingerprint returns a one-byte summary of block in every byte lane: the
// top seven bits of a multiplicative hash, with the top bit set so that it
// never equals an empty lane's 0.
//
//dsp:hotpath
func fingerprint(block uint64) uint64 {
	return (block*0x9E3779B97F4A7C15>>57 | 0x80) * ones64
}

// nibbleLane returns the lane of the nibble of rank equal to v.
//
//dsp:hotpath
func nibbleLane(rank, v uint32) int {
	x := rank ^ v*onesN
	return bits.TrailingZeros32(^((x&lowN + lowN) | x | lowN)) >> 2
}

// promoteNibble makes the way whose rank nibble starts at bit sh the most
// recently used: every way of lower rank moves down one. Lanes at or above
// the associativity hold 0xF, which no rank below 8 moves.
//
//dsp:hotpath
func promoteNibble(rank uint32, sh uint) uint32 {
	r := rank >> sh & 0xF
	below := ^((rank | highN) - r*onesN) & highN
	return (rank + below>>3) &^ (0xF << sh)
}

// find returns the way index of block within its set, or -1 if it is not
// resident, without touching LRU state.
func (c *Cache) find(block uint64) int {
	si := block & c.setMask
	h := &c.heads[si]
	if h.gen != c.gen {
		return -1
	}
	return c.findNarrow(h, int(si)*c.assoc, block, fingerprint(block))
}

// Reset returns the cache to its just-built state: no contents, no
// statistics. It starts a new generation, which leaves every set stale, and
// clears the MRU words.
func (c *Cache) Reset() {
	c.hits, c.misses = 0, 0
	clear(c.mru)
	if c.gen++; c.gen == 0 {
		// The stamps wrapped: clear them, so that no set stamped 2^32
		// resets ago reads as current.
		clear(c.heads)
		c.gen = 1
	}
}

// Hits returns the number of hits observed.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses observed.
func (c *Cache) Misses() uint64 { return c.misses }
