package hw

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative cache with LRU replacement. Keys are block
// numbers (the caller chooses the granularity: 64 B lines for data, 512 B
// blocks for instructions, 4 KB pages for TLBs). The zero value is not
// usable; construct with NewCache.
//
// The model is the simulator's hottest code: every simulated memory access
// probes up to four levels, and the L2 and LLC arrays are large enough to
// miss the host's own caches. So each set keeps its LRU order as a rank
// per way (0 is the most recently used) in a few words beside its tags, a
// miss reads its victim off the ranks instead of scanning for the least
// recent use, and a probe touches as few host cache lines as the layout
// allows:
//
//   - A set of at most narrowWays ways (L1I, L1D, L2, the TLBs) has a
//     16-byte head: one fingerprint byte and one rank nibble per way and
//     the set's generation stamp. Its ways are 16-byte {tag, version}
//     pairs, and a probe reads only the ways whose fingerprint matches.
//   - A wider set (the LLC) keeps its tags packed to 32 bits, the block's
//     bits above the set index plus one, with one rank byte per way and its
//     stamp in one row: 128 bytes for 20 ways. The versions sit in a row of
//     their own that only a tag match or an install touches. The packing is
//     exact for keys below 2^32 times the set count; addr.go keeps every
//     line and code-block key below 2^42.
//
// A miss fills the set's lowest-index empty way, else its way of rank
// Assoc()-1: the set's first way of least last use, as a cache stamping
// each use with a tick picks it. All arrays are pointer-free, so the
// garbage collector never scans them and pages of a large cache that are
// never probed are never touched. Reset bumps the cache's generation; a
// set stamped with an older one is empty and is rebuilt on its first
// probe, so a reset costs nothing per set.
type Cache struct {
	setMask uint64
	assoc   int
	gen     uint32 // the current generation; a set stamped otherwise is empty

	// Sets of at most narrowWays ways.
	heads  []setHead // one per set
	ways   []way     // set s holds ways[s*assoc : (s+1)*assoc]
	fpMask uint64    // the top bit of each fingerprint lane below assoc

	// Wider sets.
	rows     []uint32 // set s holds rows[s*rowWords : (s+1)*rowWords]
	vers     []uint32 // the version each way was filled at, set-major
	rowWords int      // assoc packed tags, the rank words, padding, the stamp
	setBits  uint     // log2(sets): the shift that packs a tag

	// rank0 holds a fresh set's rank words: way i has rank i, and lanes at
	// or above assoc hold a value no rank update or victim search matches.
	rank0 []uint32

	blockBytes int // granularity CacheFor was sized with (0 if NewCache)

	hits   uint64
	misses uint64
}

// narrowWays is the most ways a set keeps behind a fingerprint head, and
// maxAssoc the most ways any set holds: a rank byte keeps its top bit free
// for the word-wide compare in promoteBytes.
const (
	narrowWays = 8
	maxAssoc   = 127
)

// setHead is a narrow set's fingerprints, LRU ranks and generation stamp.
type setHead struct {
	fp   uint64 // byte i: way i's fingerprint (top bit set), 0 if way i is empty
	rank uint32 // nibble i: way i's LRU rank
	gen  uint32
}

// way is a narrow set's way: the block it holds and the coherence version
// the copy was filled at. It is meaningful only while its fingerprint lane
// is nonzero.
type way struct {
	tag uint64
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

// NewCache builds a cache with the given number of sets and associativity.
// Sets must be a power of two and the associativity at most 127.
func NewCache(sets, assoc int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("hw: cache sets must be a positive power of two")
	}
	if assoc <= 0 || assoc > maxAssoc {
		panic("hw: cache associativity must be in [1, 127]")
	}
	c := &Cache{setMask: uint64(sets - 1), assoc: assoc, gen: 1}
	if assoc <= narrowWays {
		c.heads = make([]setHead, sets)
		c.ways = make([]way, sets*assoc)
		c.rank0 = []uint32{0}
		for i := 0; i < narrowWays; i++ {
			lane := uint32(0xF)
			if i < assoc {
				lane = uint32(i)
				c.fpMask |= 0x80 << (8 * i)
			}
			c.rank0[0] |= lane << (4 * i)
		}
		return c
	}
	nr := (assoc + 3) / 4
	c.rowWords = (assoc + nr + 1 + 15) &^ 15 // whole 64-byte host lines
	c.rows = make([]uint32, sets*c.rowWords)
	c.vers = make([]uint32, sets*assoc)
	c.setBits = uint(bits.TrailingZeros(uint(sets)))
	c.rank0 = make([]uint32, nr)
	for i := 0; i < 4*nr; i++ {
		lane := uint32(0x7F)
		if i < assoc {
			lane = uint32(i)
		}
		c.rank0[i/4] |= lane << (8 * (i % 4))
	}
	return c
}

// CacheFor builds a cache sized capacityBytes with blockBytes blocks and the
// given associativity. Because the set count must be a power of two, the
// requested capacity is rounded DOWN to the nearest power-of-two set count:
// a capacity whose set count is not a power of two can shed up to half the
// requested bytes (e.g. a 24 MB, 20-way, 64 B-line request yields 16384
// sets and only 20 MB effective). Check EffectiveBytes when sizing caches;
// every Table III level divides exactly and loses nothing.
func CacheFor(capacityBytes, blockBytes, assoc int) *Cache {
	c := NewCache(floorPow2(capacityBytes/blockBytes/assoc), assoc)
	c.blockBytes = blockBytes
	return c
}

// floorPow2 returns the largest power of two not above n, or 1 if n < 2.
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
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
	_, hit := c.access(block, 0, false)
	return hit
}

// AccessWay is Access that also returns the index of the way now holding
// the block, in [0, Sets()*Assoc()): a miss filled that way, evicting
// whatever it held. The machine keys its decoded-µop cache on L1I ways.
//
//dsp:hotpath
func (c *Cache) AccessWay(block uint64) (way int, hit bool) {
	return c.access(block, 0, false)
}

// AccessV looks up a block requiring coherence version ver: a resident copy
// filled at an older version is stale (another core wrote the line since)
// and counts as a miss, refilled at ver. This is the model's lightweight
// stand-in for MESI invalidations.
//
//dsp:hotpath
func (c *Cache) AccessV(block uint64, ver uint32) bool {
	_, hit := c.access(block, ver, false)
	return hit
}

// WriteAccessV is AccessV for a store that just bumped the line's version
// to ver: a copy at ver-1 belongs to this cache's core from its previous
// write or read and is upgraded in place (an M-state rewrite), counting as
// a hit.
//
//dsp:hotpath
func (c *Cache) WriteAccessV(block uint64, ver uint32) bool {
	_, hit := c.access(block, ver, true)
	return hit
}

// access is the lookup behind every probe: a resident copy at ver (or, for
// a write, at ver-1) hits, any other resident copy is refilled in place at
// ver, and an absent block is installed in the set's victim way. Either
// way the block's way becomes the set's most recently used.
//
//dsp:hotpath
func (c *Cache) access(block uint64, ver uint32, write bool) (wi int, hit bool) {
	if c.rows != nil {
		return c.accessWide(block, ver, write)
	}
	si := block & c.setMask
	h := &c.heads[si]
	if h.gen != c.gen {
		*h = setHead{rank: c.rank0[0], gen: c.gen}
	}
	base := int(si) * c.assoc
	fp := fingerprint(block)
	i := c.findNarrow(h, base, block, fp)
	if i >= 0 {
		hit = settle(&c.ways[base+i].ver, ver, write)
	} else {
		if e := ^h.fp & c.fpMask; e != 0 { // an empty lane's top bit is clear
			i = bits.TrailingZeros64(e) >> 3
		} else {
			i = nibbleLane(h.rank, uint32(c.assoc-1))
		}
		sh := uint(8 * i)
		h.fp = h.fp&^(0xFF<<sh) | fp&(0xFF<<sh)
		c.ways[base+i] = way{tag: block, ver: ver}
	}
	c.count(hit)
	if sh := uint(4 * i); h.rank>>sh&0xF != 0 {
		h.rank = promoteNibble(h.rank, sh)
	}
	return base + i, hit
}

// accessWide is access for a set of more than narrowWays ways.
//
//dsp:hotpath
func (c *Cache) accessWide(block uint64, ver uint32, write bool) (wi int, hit bool) {
	si := block & c.setMask
	row := c.row(si)
	if row[len(row)-1] != c.gen {
		clear(row[:c.assoc])
		copy(row[c.assoc:], c.rank0)
		row[len(row)-1] = c.gen
	}
	base := int(si) * c.assoc
	tags, ranks := row[:c.assoc], row[c.assoc:c.assoc+len(c.rank0)]
	t := c.packTag(block)
	i := findTag(tags, t)
	if i >= 0 {
		hit = settle(&c.vers[base+i], ver, write)
	} else {
		if i = findTag(tags, 0); i < 0 {
			i = byteLane(ranks, uint32(c.assoc-1))
		}
		tags[i] = t
		c.vers[base+i] = ver
	}
	c.count(hit)
	promoteBytes(ranks, i)
	return base + i, hit
}

// settle reports whether a resident copy filled at version *v serves a
// probe for ver (a write also takes ver-1, its core's own previous
// version), and leaves the copy at ver.
//
//dsp:hotpath
func settle(v *uint32, ver uint32, write bool) bool {
	hit := *v == ver || write && *v == ver-1
	if *v != ver {
		*v = ver
	}
	return hit
}

// count tallies a probe's hit or miss.
//
//dsp:hotpath
func (c *Cache) count(hit bool) {
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// row returns wide set si's row.
//
//dsp:hotpath
func (c *Cache) row(si uint64) []uint32 {
	lo := int(si) * c.rowWords
	return c.rows[lo : lo+c.rowWords : lo+c.rowWords]
}

// packTag returns a wide set's tag for block: its bits above the set index
// plus one, so that 0 marks an empty way.
//
//dsp:hotpath
func (c *Cache) packTag(block uint64) uint32 {
	hi := block >> c.setBits
	if hi >= 1<<32-1 {
		c.keyTooLarge(block)
	}
	return uint32(hi) + 1
}

// keyTooLarge panics: a key beyond the packed tags is a caller's bug that
// would otherwise alias another block.
func (c *Cache) keyTooLarge(block uint64) {
	panic(fmt.Sprintf("hw: block %#x does not fit the packed tags of a %d-set cache", block, c.Sets()))
}

// findNarrow returns the way of narrow set h (whose ways start at base)
// that holds block, or -1. fp is the block's fingerprint in every lane.
// The candidates are the lanes whose byte of h.fp^fp is zero, found by
// testing each byte's top bit of (x-1)&^x. A borrow can also flag the lane
// of a full way above a true candidate; its tag compare rejects it.
//
//dsp:hotpath
func (c *Cache) findNarrow(h *setHead, base int, block, fp uint64) int {
	x := h.fp ^ fp
	for m := (x - ones64) &^ x & c.fpMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m) >> 3
		if c.ways[base+i].tag == block {
			return i
		}
	}
	return -1
}

// findTag returns the first way of a wide set holding packed tag t, or -1.
//
//dsp:hotpath
func findTag(tags []uint32, t uint32) int {
	for i, x := range tags {
		if x == t {
			return i
		}
	}
	return -1
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

// byteLane returns the lane of the rank byte in words equal to v, which a
// set's rank words always hold.
//
//dsp:hotpath
func byteLane(words []uint32, v uint32) int {
	b := v * ones32
	for k := 0; ; k++ {
		x := words[k] ^ b
		if z := ^((x&low32 + low32) | x | low32); z != 0 {
			return 4*k + bits.TrailingZeros32(z)>>3
		}
	}
}

// promoteBytes makes way i of a wide set with the given rank words the
// most recently used: every way of lower rank moves down one. Lanes at or
// above the associativity hold 0x7F, which no rank below 127 moves.
//
//dsp:hotpath
func promoteBytes(words []uint32, i int) {
	sh := uint(8 * (i & 3))
	r := words[i>>2] >> sh & 0xFF
	if r == 0 {
		return
	}
	b := r * ones32
	for k, x := range words {
		words[k] = x + (^((x|high32)-b)&high32)>>7
	}
	words[i>>2] &^= 0xFF << sh
}

// find returns the way index of block within its set, or -1 if it is not
// resident.
func (c *Cache) find(block uint64) int {
	si := block & c.setMask
	if c.rows != nil {
		row := c.row(si)
		if row[len(row)-1] != c.gen {
			return -1
		}
		return findTag(row[:c.assoc], c.packTag(block))
	}
	h := &c.heads[si]
	if h.gen != c.gen {
		return -1
	}
	return c.findNarrow(h, int(si)*c.assoc, block, fingerprint(block))
}

// Contains reports whether a block is resident without touching LRU state.
func (c *Cache) Contains(block uint64) bool { return c.find(block) >= 0 }

// Invalidate removes a block if present, leaving its way empty. The set's
// ranks are unchanged: an empty way is a miss's first choice whatever its
// rank.
func (c *Cache) Invalidate(block uint64) {
	i := c.find(block)
	switch {
	case i < 0:
	case c.rows != nil:
		c.row(block & c.setMask)[i] = 0
	default:
		c.heads[block&c.setMask].fp &^= 0xFF << (8 * i)
	}
}

// Reset returns the cache to its just-built state: no contents, no
// statistics. It starts a new generation, which leaves every set stale.
func (c *Cache) Reset() {
	c.hits, c.misses = 0, 0
	if c.gen++; c.gen == 0 {
		// The stamps wrapped: clear them, so that no set stamped 2^32
		// resets ago reads as current.
		clear(c.heads)
		clear(c.rows)
		c.gen = 1
	}
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
