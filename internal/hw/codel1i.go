package hw

import (
	"fmt"
	"math/bits"
)

// codeL1I is a core's L1 instruction cache. FetchCode probes it once per
// code block, and an invocation walks more code than the cache holds, so a
// block that hits comes back after most of its set has been used since: in
// a sim-cells pass no hit is on its set's most recently used way and 98.8%
// are at rank 4 or deeper. A lookup therefore must not search a set. The
// index keeps one byte per code block, the blocks numbered from CodeBase:
// the way holding the block plus one, or 0 while it is absent. A probe
// reads that byte and compares no tags. Beside it the sets keep each way's
// block number and the LRU ranks and fill rule of Cache's narrow sets, so a
// miss evicts exactly the block a Cache would, and the eviction zeroes the
// victim's byte.
//
// The index is allocated in chunks of codeChunk blocks, each when a fetch
// first reaches it: a run's code is spread over megabytes (Storm's cold
// regions alone span 10 MB) of which it fetches a few regions.
type codeL1I struct {
	sets    []codeSet
	setMask uint64
	assoc   uint32
	chunks  []*[codeChunk]uint8 // chunk k indexes blocks k*codeChunk to k*codeChunk+codeChunk-1
	hits    uint64
	misses  uint64
}

// codeSet is one L1I set. A miss fills the lowest-index empty way and only
// a reset empties one, so ways 0 to full-1 are the full ones.
type codeSet struct {
	rank  uint32             // nibble i: way i's LRU rank
	full  uint32             // the ways in use
	block [narrowWays]uint32 // way i's block number
}

const (
	// codeChunk is the blocks one index chunk covers: 512 KB of code in
	// 1 KB of index at Table III's 512 B blocks.
	codeChunk = 1 << 10
	// scanBlocks is the most blocks one scan probes, the bits of its mask.
	// It divides codeChunk, so aligned runs of it never cross a chunk.
	scanBlocks = 64
	// maxCodeBlocks bounds the block numbers the index holds: 4 GB of code
	// at 512 B blocks, in at most 64 KB of chunk pointers.
	maxCodeBlocks = 1 << 23
)

// newCodeL1I builds an empty L1I of the given shape, whose associativity
// must be at most narrowWays.
func newCodeL1I(cs CacheSpec) codeL1I {
	if cs.Assoc <= 0 || cs.Assoc > narrowWays {
		panic(fmt.Sprintf("hw: L1I associativity must be in [1, %d]", narrowWays))
	}
	sets := floorPow2(cs.CapacityBytes / cs.BlockBytes / cs.Assoc)
	x := codeL1I{sets: make([]codeSet, sets), setMask: uint64(sets - 1), assoc: uint32(cs.Assoc)}
	x.reset()
	return x
}

// chunk returns the index chunk of block n, allocating it on first touch.
// n must be below maxCodeBlocks.
//
//dsp:hotpath
func (x *codeL1I) chunk(n uint64) *[codeChunk]uint8 {
	if k := n / codeChunk; k < uint64(len(x.chunks)) && x.chunks[k] != nil {
		return x.chunks[k]
	}
	return x.addChunk(n)
}

// addChunk allocates the index chunk of block n.
func (x *codeL1I) addChunk(n uint64) *[codeChunk]uint8 {
	k := int(n / codeChunk)
	if k >= len(x.chunks) {
		x.chunks = append(x.chunks, make([]*[codeChunk]uint8, k+1-len(x.chunks))...)
	}
	x.chunks[k] = new([codeChunk]uint8)
	return x.chunks[k]
}

// scan probes blocks n to end of index chunk ch in order, at most
// scanBlocks of them. A hit makes its way the set's most recently used; a
// miss installs the block in the set's lowest-index empty way, else in its
// way of rank assoc-1, whose block leaves the index. It returns the blocks
// that missed as a mask: bit j is block n+j.
//
//dsp:hotpath
func (x *codeL1I) scan(ch *[codeChunk]uint8, n, end uint64) (missed uint64) {
	sets, mask, chunks, assoc := x.sets, x.setMask, x.chunks, x.assoc
	for b := n; b <= end; b++ {
		s := &sets[b&mask]
		i := uint32(ch[b%codeChunk])
		if i != 0 {
			i--
		} else {
			missed |= 1 << (b - n)
			if i = s.full; i < assoc {
				s.full++
			} else {
				i = uint32(nibbleLane(s.rank, assoc-1))
				old := s.block[i]
				chunks[old/codeChunk][old%codeChunk] = 0
			}
			s.block[i] = uint32(b)
			ch[b%codeChunk] = uint8(i + 1)
		}
		if sh := uint(4 * i); s.rank>>sh&0xF != 0 {
			s.rank = promoteNibble(s.rank, sh)
		}
	}
	m := uint64(bits.OnesCount64(missed))
	x.misses += m
	x.hits += end + 1 - n - m
	return missed
}

// reset empties the cache and zeroes its counts. Only resident blocks have
// a nonzero index byte, so it zeroes theirs and keeps every chunk.
func (x *codeL1I) reset() {
	rank0 := narrowRank0(int(x.assoc))
	for i := range x.sets {
		s := &x.sets[i]
		for _, b := range s.block[:s.full] {
			x.chunks[b/codeChunk][b%codeChunk] = 0
		}
		*s = codeSet{rank: rank0}
	}
	x.hits, x.misses = 0, 0
}

// codeOutOfRange panics: code below CodeBase or past the blocks the L1I
// index holds is a caller's bug that would otherwise alias another block.
func codeOutOfRange(base uint64, size int) {
	if base < CodeBase {
		panic(fmt.Sprintf("hw: code fetch at %#x is below CodeBase %#x", base, CodeBase))
	}
	panic(fmt.Sprintf("hw: code fetch of %d bytes at %#x runs past the %d code blocks the L1I index holds", size, base, maxCodeBlocks))
}
