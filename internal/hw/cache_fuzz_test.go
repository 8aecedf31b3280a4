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

// FuzzCacheMatchesReference runs Cache and the tick-scan refCache through
// one stream of operations and requires the same hit or miss, way index and
// counters from every operation, and the same block in every way at the
// end.
//
// The first byte picks the shape: one NewMachine builds (bits 0-3), else
// a small one from the second byte, with up to 24 ways so that both set
// layouts are covered. Each further 3-byte group [op, k, v] is one operation
// on a block folded onto four sets and 2*assoc+3 tags per set, so sets
// fill, evict and hold stale versions; the op byte's top three bits spread
// the tags to the largest keys the shape's packed tags must hold. A reset
// can also skip the generation to just short of its wrap, so that the
// stamps wrap within one input.
func FuzzCacheMatchesReference(f *testing.F) {
	shapes := machineShapes()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		var sets, assoc int
		if i := int(in[0] & 15); i < len(shapes) {
			sets, assoc = shapes[i][0], shapes[i][1]
		} else {
			sets, assoc = 1<<(in[1]&3), 1+int(in[1]>>2)%24
		}
		c, ref := NewCache(sets, assoc), newRefCache(sets, assoc)
		// Tags spread up to the 2^42 key bound, and below the 2^32 tags a
		// wide set packs.
		setBits := bits.TrailingZeros(uint(sets))
		spread := min(39-setBits, 28)
		picks := [4]uint64{0, 1, uint64(sets - 1), uint64(sets / 2)}
		var keys []uint64
		for p := 2; p+3 <= len(in); p += 3 {
			op, k, v := in[p], in[p+1], uint32(in[p+2]&3)
			hi := uint64(int(k)%(2*assoc+3)) | uint64(op>>5)<<spread
			block := picks[op>>3&3]&c.setMask | hi<<setBits
			keys = append(keys, block)
			switch op & 7 {
			case 0, 1:
				gotW, got := c.access(block, v, false)
				wantW, want := ref.access(block, v)
				if gotW != wantW || got != want {
					t.Fatalf("op %d: AccessV(%#x, %d) = way %d hit %v, reference way %d hit %v", p/3, block, v, gotW, got, wantW, want)
				}
			case 2:
				if got, want := c.WriteAccessV(block, v), ref.WriteAccessV(block, v); got != want {
					t.Fatalf("op %d: WriteAccessV(%#x, %d) = %v, reference %v", p/3, block, v, got, want)
				}
			case 3:
				gotW, got := c.access(block, 0, false)
				wantW, want := ref.access(block, 0)
				if gotW != wantW || got != want {
					t.Fatalf("op %d: access(%#x, 0) = way %d hit %v, reference way %d hit %v", p/3, block, gotW, got, wantW, want)
				}
			case 4:
				if got, want := c.Access(block), ref.Access(block); got != want {
					t.Fatalf("op %d: Access(%#x) = %v, reference %v", p/3, block, got, want)
				}
			case 5:
				if got, want := c.Contains(block), ref.Contains(block); got != want {
					t.Fatalf("op %d: Contains(%#x) = %v, reference %v", p/3, block, got, want)
				}
			case 6:
				c.Invalidate(block)
				ref.Invalidate(block)
			case 7:
				c.Reset()
				ref.Reset()
				// With bit 3 set, as if the cache had been reset until its
				// generation is op>>5 short of wrapping: sets stamped before
				// must stay empty when it wraps.
				if g := math.MaxUint32 - uint32(op>>5); op&8 != 0 && g > c.gen {
					c.gen = g
				}
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
