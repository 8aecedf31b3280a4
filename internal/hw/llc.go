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
// Each set is one llcRow, one 64-byte host line. It keeps the tags of its
// filled ways in recency order, the most recently used first: a probe
// moves its tag to the front, and a miss in a full set drops the last tag,
// the set's least recently used block, exactly the victim a cache stamping
// each use with a tick picks. A tag is the block's bits above the set
// index, 24 of them: addr.go keeps every line and code-block key below
// 2^32, so the tags of any LLC of at least 2^8 sets fit, and a larger key
// panics. Reset bumps the generation; a set stamped with an older one is
// empty and is rebuilt on its first probe.
type lastLevelCache struct {
	rows    []llcRow // one per set
	setMask uint64
	assoc   uint32
	setBits uint32 // log2(sets): the shift that takes a block's tag
	gen     uint32 // the current generation, below 2^24; a set stamped otherwise is empty

	hits   uint64
	misses uint64
}

// llcWays is the most ways an llcRow holds.
const llcWays = 20

// llcRow is one LLC set: the tags of its filled ways in recency order,
// each split into its low 16 bits (lo) and its high 8 (hi), then the
// number of ways filled (meta's low byte) and the set's 24-bit generation
// stamp (meta's high bytes). It is 64 bytes, so a set is one host line.
type llcRow struct {
	lo   [llcWays]uint16
	hi   [llcWays]uint8
	meta uint32
}

const (
	// llcTagBits is the width of an llcRow's tags, and of its stamps.
	llcTagBits = 24
	// llcFill masks an llcRow's fill count out of its meta word.
	llcFill = 0xFF
)

// newLastLevelCache builds an empty LLC of the given shape, its set count
// rounded down to a power of two as cacheFor rounds it. Its associativity
// must be in [narrowWays+1, llcWays].
func newLastLevelCache(cs CacheSpec) *lastLevelCache {
	if cs.Assoc <= narrowWays || cs.Assoc > llcWays {
		panic(fmt.Sprintf("hw: LLC associativity must be in [%d, %d]", narrowWays+1, llcWays))
	}
	sets := floorPow2(cs.CapacityBytes / cs.BlockBytes / cs.Assoc)
	return &lastLevelCache{
		rows:    make([]llcRow, sets),
		setMask: uint64(sets - 1),
		assoc:   uint32(cs.Assoc),
		setBits: uint32(bits.TrailingZeros(uint(sets))),
		gen:     1,
	}
}

// probe looks up block, whose resident copy is current if current is
// true, and reports whether it hit: it is resident and current. A resident
// copy that is not current is refreshed in place; an absent block is
// added, dropping the set's least recently used block if the set is full.
// Either way the block becomes the set's most recently used.
//
//dsp:hotpath
func (l *lastLevelCache) probe(block uint64, current bool) bool {
	r := l.row(block)
	t := l.tag(block)
	lo, hi := uint16(t), uint8(t>>16)
	n := int(r.meta & llcFill)
	i := findTag(r, n, lo, hi)
	hit := i < n && current
	if i == n {
		if uint32(n) < l.assoc {
			r.meta++
		} else {
			i = n - 1 // the least recently used block leaves
		}
	}
	if hit {
		l.hits++
	} else {
		l.misses++
	}
	// Ways 0 to i-1 move back one, and the block takes way 0.
	copy(r.lo[1:i+1], r.lo[:i])
	copy(r.hi[1:i+1], r.hi[:i])
	r.lo[0], r.hi[0] = lo, hi
	return hit
}

// row returns block's set, rebuilt empty if it is stamped with an older
// generation.
//
//dsp:hotpath
func (l *lastLevelCache) row(block uint64) *llcRow {
	r := &l.rows[block&l.setMask]
	if r.meta>>8 != l.gen {
		r.meta = l.gen << 8
	}
	return r
}

// tag returns block's tag: its bits above the set index.
//
//dsp:hotpath
func (l *lastLevelCache) tag(block uint64) uint32 {
	t := block >> l.setBits
	if t >= 1<<llcTagBits {
		l.keyTooLarge(block)
	}
	return uint32(t)
}

// keyTooLarge panics: a key beyond the 24-bit tags is a caller's bug that
// would otherwise alias another block.
func (l *lastLevelCache) keyTooLarge(block uint64) {
	panic(fmt.Sprintf("hw: block %#x does not fit the %d-bit tags of a %d-set LLC", block, llcTagBits, l.setMask+1))
}

// findTag returns the way of r's first n that holds the tag {lo, hi}, or n.
//
//dsp:hotpath
func findTag(r *llcRow, n int, lo uint16, hi uint8) int {
	for i, x := range r.lo[:n] {
		if x == lo && r.hi[i] == hi {
			return i
		}
	}
	return n
}

// reset empties the cache and zeroes its counts. It starts a new
// generation, which leaves every set stale.
func (l *lastLevelCache) reset() {
	l.hits, l.misses = 0, 0
	if l.gen++; l.gen == 1<<llcTagBits {
		// The stamps wrapped: clear them, so that no set stamped 2^24
		// resets ago reads as current.
		clear(l.rows)
		l.gen = 1
	}
}
