package hw

import "testing"

// l1iWay returns the way of x holding block n, or -1, read off the index.
func l1iWay(x *codeL1I, n uint64) int {
	if k := n / codeChunk; k < uint64(len(x.chunks)) && x.chunks[k] != nil {
		return int(x.chunks[k][n%codeChunk]) - 1
	}
	return -1
}

// FuzzCodeL1IMatchesReference runs the L1I index and the tick-scan
// refCache, both at Table III's 8 sets of 8 ways, through one stream of
// code fetches and requires the same hit or miss on every block, the same
// counters after every fetch, and the same way for every block touched at
// the end.
//
// Each 4-byte group [op, k, o, n] is one operation. An op with its low two
// bits set resets both caches. Any other is a fetch of 1 to 64 consecutive
// blocks, scanned as FetchCode scans them in runs of at most scanBlocks
// that stay within one index chunk. A fetch starts up to 32 blocks either
// side of the boundary of chunks k&3 and k&3+1, so fetches cross chunks
// and come back to blocks that either cache may still hold. With op bit 2
// set, the boundary moves op>>3 times 256 chunks further, so the index
// grows to the edge of its reach.
func FuzzCodeL1IMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		x := newCodeL1I(TableIII().L1I)
		ref := newRefCache(len(x.sets), int(x.assoc))
		if len(x.sets) != 8 || x.assoc != 8 {
			t.Fatalf("Table III's L1I has %d sets of %d ways, want 8 of 8", len(x.sets), x.assoc)
		}
		var seen []uint64
		for p := 0; p+4 <= len(in); p += 4 {
			op := in[p]
			if op&3 == 3 {
				x.reset()
				ref.Reset()
				continue
			}
			k := uint64(1 + in[p+1]&3)
			if op&4 != 0 {
				k += uint64(op>>3) << 8
			}
			first := k*codeChunk - 32 + uint64(in[p+2]&63)
			last := first + uint64(in[p+3]&63)
			for n := first; n <= last; {
				end := min(last, n|(scanBlocks-1))
				missed := x.scan(x.chunk(n), n, end)
				for b := n; b <= end; b++ {
					seen = append(seen, b)
					if got, want := missed>>(b-n)&1 == 0, ref.Access(b); got != want {
						t.Fatalf("op %d: block %#x hit %v, reference %v", p/4, b, got, want)
					}
				}
				n = end + 1
			}
			if x.hits != ref.Hits() || x.misses != ref.Misses() {
				t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d", p/4, x.hits, x.misses, ref.Hits(), ref.Misses())
			}
		}
		for _, n := range seen {
			if got, want := l1iWay(&x, n), refFind(ref, n); got != want {
				t.Fatalf("block %#x is in way %d, reference way %d", n, got, want)
			}
		}
	})
}
