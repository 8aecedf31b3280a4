package hw

import (
	"fmt"
	"math/bits"
)

// lastLevelCache is a socket's LLC: a set-associative LRU cache of wide
// sets that keeps no coherence versions. The machine's line directory
// (linedir.go) knows, for every written line, which sockets' LLCs hold its
// current copy, so each probe says whether this cache's copy would be
// current; a resident copy that is not counts a miss and is refreshed in
// place, as a copy filled at an older version would be.
//
// Each set is one row of pointer-free words: its tags packed to 32 bits
// (the block's bits above the set index plus one), one LRU rank byte per
// way (0 is the most recently used), the number of ways filled and the
// set's generation stamp. A row is 128 bytes, two host lines, for 20 ways.
// The packing is exact for keys below 2^32 times the set count; addr.go
// keeps every line and code-block key below 2^42, and a larger key panics.
//
// Nothing empties a single way, so a set fills its ways in order and a
// probe compares only the filled ones. A miss in a full set evicts its way
// of rank assoc-1: the first way of least last use, as a cache stamping
// each use with a tick picks it. Reset bumps the generation; a set stamped
// with an older one is empty and is rebuilt on its first probe.
type lastLevelCache struct {
	rows     []uint32 // set s holds rows[s*rowWords : (s+1)*rowWords]
	rank0    []uint32 // a fresh set's rank words; see newLastLevelCache
	setMask  uint64
	assoc    int32
	rowWords int32  // assoc tags, the rank words, padding, the fill count, the stamp
	setBits  uint32 // log2(sets): the shift that packs a tag
	gen      uint32 // the current generation; a set stamped otherwise is empty

	hits   uint64
	misses uint64
}

// newLastLevelCache builds an empty LLC of the given shape, its set count
// rounded down to a power of two as CacheFor rounds it. Its associativity
// must be in [narrowWays+1, 127]: a rank byte keeps its top bit free for
// the word-wide compare in promoteBytes.
func newLastLevelCache(cs CacheSpec) *lastLevelCache {
	sets := floorPow2(cs.CapacityBytes / cs.BlockBytes / cs.Assoc)
	if cs.Assoc <= narrowWays || cs.Assoc > 127 {
		panic(fmt.Sprintf("hw: LLC associativity must be in [%d, 127]", narrowWays+1))
	}
	nr := (cs.Assoc + 3) / 4
	l := &lastLevelCache{
		rank0:    make([]uint32, nr),
		setMask:  uint64(sets - 1),
		assoc:    int32(cs.Assoc),
		rowWords: int32(cs.Assoc+nr+2+15) &^ 15, // whole 64-byte host lines
		setBits:  uint32(bits.TrailingZeros(uint(sets))),
		gen:      1,
	}
	l.rows = make([]uint32, sets*int(l.rowWords))
	// Way i has rank i, and lanes at or above assoc hold a value no rank
	// update or victim search matches.
	for i := 0; i < 4*nr; i++ {
		lane := uint32(0x7F)
		if i < cs.Assoc {
			lane = uint32(i)
		}
		l.rank0[i/4] |= lane << (8 * (i % 4))
	}
	return l
}

// probe looks up block, whose resident copy is current if current is
// true, and reports whether it hit: it is resident and current. A resident
// copy that is not current is refreshed in place; an absent block fills
// the set's next empty way, else evicts its least recently used one.
// Either way the block's way becomes the set's most recently used.
//
//dsp:hotpath
func (l *lastLevelCache) probe(block uint64, current bool) bool {
	row := l.set(block)
	n := len(row)
	ranks := row[l.assoc : int(l.assoc)+len(l.rank0)]
	t := l.packTag(block)
	i := findTag(row[:row[n-2]], t)
	hit := i >= 0 && current
	if i < 0 {
		if f := row[n-2]; f < uint32(l.assoc) {
			i = int(f)
			row[n-2] = f + 1
		} else {
			i = byteLane(ranks, uint32(l.assoc-1))
		}
		row[i] = t
	}
	if hit {
		l.hits++
	} else {
		l.misses++
	}
	promoteBytes(ranks, i)
	return hit
}

// set returns block's set row, rebuilt empty if it is stamped with an
// older generation.
//
//dsp:hotpath
func (l *lastLevelCache) set(block uint64) []uint32 {
	w := int(l.rowWords)
	lo := int(block&l.setMask) * w
	row := l.rows[lo : lo+w : lo+w]
	if row[w-1] != l.gen {
		copy(row[l.assoc:], l.rank0)
		row[w-2] = 0
		row[w-1] = l.gen
	}
	return row
}

// packTag returns block's packed tag: its bits above the set index plus
// one, so that no tag is 0.
//
//dsp:hotpath
func (l *lastLevelCache) packTag(block uint64) uint32 {
	hi := block >> l.setBits
	if hi >= 1<<32-1 {
		l.keyTooLarge(block)
	}
	return uint32(hi) + 1
}

// keyTooLarge panics: a key beyond the packed tags is a caller's bug that
// would otherwise alias another block.
func (l *lastLevelCache) keyTooLarge(block uint64) {
	panic(fmt.Sprintf("hw: block %#x does not fit the packed tags of a %d-set LLC", block, l.setMask+1))
}

// find returns the way of block within its set, or -1 if it is not
// resident, without touching LRU state.
func (l *lastLevelCache) find(block uint64) int {
	w := int(l.rowWords)
	lo := int(block&l.setMask) * w
	row := l.rows[lo : lo+w]
	if row[w-1] != l.gen {
		return -1
	}
	return findTag(row[:row[w-2]], l.packTag(block))
}

// reset empties the cache and zeroes its counts. It starts a new
// generation, which leaves every set stale.
func (l *lastLevelCache) reset() {
	l.hits, l.misses = 0, 0
	if l.gen++; l.gen == 0 {
		// The stamps wrapped: clear them, so that no set stamped 2^32
		// resets ago reads as current.
		clear(l.rows)
		l.gen = 1
	}
}

// findTag returns the way holding packed tag t among tags, or -1.
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

// promoteBytes makes way i of a set with the given rank words the most
// recently used: every way of lower rank moves down one. Lanes at or above
// the associativity hold 0x7F, which no rank below 127 moves.
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
