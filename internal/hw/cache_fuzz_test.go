package hw

import (
	"math"
	"math/bits"
	"testing"
)

// machineShapes lists the {sets, assoc} of every cache and TLB NewMachine
// builds for Table III and its variants, without building the machines.
func machineShapes() [][2]int {
	var shapes [][2]int
	add := func(sets, assoc int) {
		for _, s := range shapes {
			if s == [2]int{sets, assoc} {
				return
			}
		}
		shapes = append(shapes, [2]int{sets, assoc})
	}
	for _, name := range VariantNames() {
		spec, _ := Variant(name)
		for _, cs := range []CacheSpec{spec.L1I, spec.L1D, spec.L2, spec.LLC} {
			add(floorPow2(cs.CapacityBytes/cs.BlockBytes/cs.Assoc), cs.Assoc)
		}
		for _, t := range []TLBSpec{spec.ITLB, spec.DTLB, spec.STLB} {
			add(pow2Sets(t), t.Assoc)
		}
	}
	return shapes
}

// refFind returns the way of block within its set in r, or -1.
func refFind(r *refCache, block uint64) int {
	base := int(block&r.setMask) * r.assoc
	for i, w := range r.ways[base : base+r.assoc] {
		if w.tag == block+1 {
			return i
		}
	}
	return -1
}

// fuzzBlock returns the block a fuzz operation [op, k] probes in a cache
// of 2^setBits sets and assoc ways: folded onto four sets and 2*assoc+3
// tags per set, so sets fill, evict and hold stale copies, with the op
// byte's top three bits spreading the tags up to the 2^42 key bound and
// below the 2^32 tags an LLC packs.
func fuzzBlock(op, k byte, setBits, assoc int) uint64 {
	sets := uint64(1) << setBits
	spread := min(39-setBits, 28)
	picks := [4]uint64{0, 1, sets - 1, sets / 2}
	hi := uint64(int(k)%(2*assoc+3)) | uint64(op>>5)<<spread
	return picks[op>>3&3]&(sets-1) | hi<<setBits
}

// fuzzWrap, after a reset whose op byte has bit 3 set, moves a generation
// to as if the cache had been reset until it is op>>5 short of wrapping:
// sets stamped before must stay empty when it wraps.
func fuzzWrap(op byte, gen *uint32) {
	if g := math.MaxUint32 - uint32(op>>5); op&8 != 0 && g > *gen {
		*gen = g
	}
}

// FuzzCacheMatchesReference runs Cache and the tick-scan refCache through
// one stream of operations and requires the same hit or miss, way index and
// counters from every operation, and the same block in every way at the
// end.
//
// The first byte picks the shape: one of the caches of at most narrowWays
// ways NewMachine builds (bits 0-3), else a small one from the second
// byte. Each further 3-byte group [op, k, v] is one operation on the block
// fuzzBlock picks, at version v&3: a load (op&7 of 0, 1 or 3, the last at
// version 0), a store, Access, a residency check (5 and 6) or a reset,
// which can also skip the generation to just short of its wrap, so that
// the stamps wrap within one input.
func FuzzCacheMatchesReference(f *testing.F) {
	shapes := machineShapes()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		var sets, assoc int
		if i := int(in[0] & 15); i < len(shapes) && shapes[i][1] <= narrowWays {
			sets, assoc = shapes[i][0], shapes[i][1]
		} else {
			sets, assoc = 1<<(in[1]&3), 1+int(in[1]>>2)%narrowWays
		}
		c, ref := NewCache(sets, assoc), newRefCache(sets, assoc)
		setBits := bits.TrailingZeros(uint(sets))
		var keys []uint64
		for p := 2; p+3 <= len(in); p += 3 {
			op, v := in[p], uint32(in[p+2]&3)
			block := fuzzBlock(op, in[p+1], setBits, assoc)
			keys = append(keys, block)
			switch op & 7 {
			case 0, 1, 3:
				if op&7 == 3 {
					v = 0
				}
				gotW, got := c.access(block, v, false)
				wantW, want := ref.access(block, v)
				if gotW != wantW || got != want {
					t.Fatalf("op %d: access(%#x, %d) = way %d hit %v, reference way %d hit %v", p/3, block, v, gotW, got, wantW, want)
				}
			case 2:
				_, got := c.access(block, v, true)
				if want := ref.WriteAccessV(block, v); got != want {
					t.Fatalf("op %d: a store's access(%#x, %d) hit %v, reference %v", p/3, block, v, got, want)
				}
			case 4:
				if got, want := c.Access(block), ref.Access(block); got != want {
					t.Fatalf("op %d: Access(%#x) = %v, reference %v", p/3, block, got, want)
				}
			case 5, 6:
				if got, want := c.find(block), refFind(ref, block); got != want {
					t.Fatalf("op %d: block %#x is in way %d, reference way %d", p/3, block, got, want)
				}
			case 7:
				c.Reset()
				ref.Reset()
				fuzzWrap(op, &c.gen)
			}
			if c.Hits() != ref.Hits() || c.Misses() != ref.Misses() {
				t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d", p/3, c.Hits(), c.Misses(), ref.Hits(), ref.Misses())
			}
		}
		for _, block := range keys {
			if got, want := c.find(block), refFind(ref, block); got != want {
				t.Fatalf("block %#x is in way %d, reference way %d", block, got, want)
			}
		}
	})
}

// FuzzLLCMatchesReference runs the versionless lastLevelCache and the
// tick-scan refCache, which keeps a version per way, through one stream of
// operations and requires the same hit or miss and counters from every
// operation and the same way for the block after it. The harness keeps
// each block's version and whether the LLC's copy of it, if it holds one,
// is current, as the line directory does: a store bumps the version and
// leaves the copy stale unless its probe reaches the LLC, the LLC probes
// with the flag, and the reference probes at the version.
//
// The first byte picks the shape: one of the LLCs NewMachine builds (bits
// 0-3, as FuzzCacheMatchesReference numbers the machine's shapes), else a
// small one of 9 to 24 ways from the second byte. Each further 3-byte
// group [op, k, v] is one operation on the block fuzzBlock picks: a load
// (op&7 of 0, 1, 3 or 4), a store (2; its probe reaches the LLC if v is
// odd), a residency check (5 and 6) or a reset, which can also skip the
// generation to just short of its wrap.
func FuzzLLCMatchesReference(f *testing.F) {
	shapes := machineShapes()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		var sets, assoc int
		if i := int(in[0] & 15); i < len(shapes) && shapes[i][1] > narrowWays {
			sets, assoc = shapes[i][0], shapes[i][1]
		} else {
			sets, assoc = 1<<(in[1]&3), narrowWays+1+int(in[1]>>2)%16
		}
		l := newLastLevelCache(CacheSpec{sets * assoc * LineBytes, LineBytes, assoc})
		ref := newRefCache(sets, assoc)
		setBits := bits.TrailingZeros(uint(sets))
		ver := map[uint64]uint32{}
		stale := map[uint64]bool{} // the LLC's copy, if resident, is not current
		var keys []uint64
		for p := 2; p+3 <= len(in); p += 3 {
			op := in[p]
			block := fuzzBlock(op, in[p+1], setBits, assoc)
			keys = append(keys, block)
			switch op & 7 {
			case 0, 1, 3, 4:
				got := l.probe(block, !stale[block])
				if _, want := ref.access(block, ver[block]); got != want {
					t.Fatalf("op %d: a load of %#x at version %d hit %v, reference %v", p/3, block, ver[block], got, want)
				}
				delete(stale, block)
			case 2:
				current := !stale[block]
				ver[block]++
				if in[p+2]&1 == 0 {
					stale[block] = true
					break
				}
				got := l.probe(block, current)
				if want := ref.WriteAccessV(block, ver[block]); got != want {
					t.Fatalf("op %d: a store to %#x at version %d hit %v, reference %v", p/3, block, ver[block], got, want)
				}
				delete(stale, block)
			case 5, 6:
				// A residency check: the one after every operation.
			case 7:
				l.reset()
				ref.Reset()
				fuzzWrap(op, &l.gen)
			}
			if got, want := l.find(block), refFind(ref, block); got != want {
				t.Fatalf("op %d: block %#x is in way %d, reference way %d", p/3, block, got, want)
			}
			if l.hits != ref.Hits() || l.misses != ref.Misses() {
				t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d", p/3, l.hits, l.misses, ref.Hits(), ref.Misses())
			}
		}
		for _, block := range keys {
			if got, want := l.find(block), refFind(ref, block); got != want {
				t.Fatalf("block %#x is in way %d, reference way %d", block, got, want)
			}
		}
	})
}
