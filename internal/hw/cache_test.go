package hw

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCacheHitAfterInsert(t *testing.T) {
	c := NewCache(4, 2)
	if c.Access(100) {
		t.Fatal("first access hit")
	}
	if !c.Access(100) {
		t.Fatal("second access missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 2) // one set, two ways
	c.Access(1)
	c.Access(2)
	c.Access(1) // refresh 1; 2 is now LRU
	c.Access(3) // evicts 2
	if c.find(1) < 0 {
		t.Fatal("block 1 evicted despite being MRU")
	}
	if c.find(2) >= 0 {
		t.Fatal("block 2 not evicted despite being LRU")
	}
	if c.find(3) < 0 {
		t.Fatal("block 3 not inserted")
	}
}

func TestCacheSetIndexing(t *testing.T) {
	c := NewCache(4, 1)
	// Blocks 0..3 map to distinct sets: all coexist despite assoc 1.
	for b := uint64(0); b < 4; b++ {
		c.Access(b)
	}
	for b := uint64(0); b < 4; b++ {
		if c.find(b) < 0 {
			t.Fatalf("block %d missing; set conflict where none expected", b)
		}
	}
	// Block 4 conflicts with block 0 only.
	c.Access(4)
	if c.find(0) >= 0 {
		t.Fatal("block 0 survived a direct-mapped conflict with block 4")
	}
	if c.find(1) < 0 || c.find(2) < 0 || c.find(3) < 0 {
		t.Fatal("non-conflicting blocks were evicted")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(2, 2)
	c.Access(1)
	c.Access(1)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("stats survived Reset")
	}
	if c.find(1) >= 0 {
		t.Fatal("contents survived Reset")
	}
}

func TestCacheForSizes(t *testing.T) {
	// 32 KB, 64 B lines, 8-way: 512 lines, 64 sets.
	c := cacheFor(CacheSpec{32 << 10, 64, 8}, true)
	if got := c.setMask + 1; got != 64 {
		t.Fatalf("sets = %d, want 64", got)
	}
	if c.assoc != 8 {
		t.Fatalf("assoc = %d, want 8", c.assoc)
	}
}

// cacheFor and the LLC round the set count down to a power of two; pin the
// set count of every Table III cache level (all divide exactly, so no
// bytes are shed) and document shapes that do lose capacity.
func TestCacheForEffectiveBytes(t *testing.T) {
	spec := TableIII()
	sets := func(cs CacheSpec) int { return cs.CapacityBytes / cs.BlockBytes / cs.Assoc }
	for _, tc := range []struct {
		name string
		cs   CacheSpec
	}{
		{"L1D", spec.L1D},
		{"L2", spec.L2},
	} {
		if got, want := int(cacheFor(tc.cs, true).setMask+1), sets(tc.cs); got != want {
			t.Errorf("%s: %d sets, want the requested capacity's %d", tc.name, got, want)
		}
	}
	if got, want := int(newCodeL1I(spec.L1I).setMask+1), sets(spec.L1I); got != want {
		t.Errorf("L1I: %d sets, want the requested capacity's %d", got, want)
	}
	if got, want := int(newLastLevelCache(spec.LLC).setMask+1), sets(spec.LLC); got != want {
		t.Errorf("LLC: %d sets, want the requested capacity's %d", got, want)
	}

	// A 384 KB, 8-way, 64 B-line request computes 768 sets, which rounds
	// down to 512: only 256 KB of the requested capacity is indexable.
	if got := cacheFor(CacheSpec{384 << 10, 64, 8}, true).setMask + 1; got != 512 {
		t.Errorf("384 KB request: %d sets, want 512 (rounding documented in cacheFor)", got)
	}
	// So does a 24 MB, 20-way LLC: 19660 sets round down to 16384, 20 MB.
	if got := newLastLevelCache(CacheSpec{24 << 20, 64, 20}).setMask + 1; got != 16384 {
		t.Errorf("24 MB LLC: %d sets, want 16384", got)
	}
}

// Property: the cache never holds more distinct resident blocks than its
// capacity, and a working set no larger than one set's associativity that is
// repeatedly accessed always hits after the first pass.
func TestCacheProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sets := 1 << rng.Intn(4)
		assoc := 1 + rng.Intn(4)
		c := NewCache(sets, assoc)

		// Random workload: capacity invariant.
		for i := 0; i < 500; i++ {
			c.Access(uint64(rng.Intn(64)))
		}
		resident := 0
		for b := uint64(0); b < 64; b++ {
			if c.find(b) >= 0 {
				resident++
			}
		}
		if resident > sets*assoc {
			return false
		}

		// Small working set: second pass must be all hits.
		c.Reset()
		ws := make([]uint64, assoc) // fits one set even in the worst case
		for i := range ws {
			ws[i] = uint64(rng.Intn(1 << 20))
			for j := 0; j < i; j++ {
				if ws[j] == ws[i] {
					ws[i]++ // crude dedup; collision chance is negligible anyway
				}
			}
		}
		// Force same set by stride: use multiples of sets to land in set 0.
		for i := range ws {
			ws[i] = ws[i] * uint64(sets)
		}
		for _, b := range ws {
			c.Access(b)
		}
		before := c.Hits()
		for _, b := range ws {
			if !c.Access(b) {
				return false
			}
		}
		return c.Hits() == before+uint64(len(ws))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCachePanicsOnBadShape: NewCache and cacheFor refuse a set count that
// is not a positive power of two and an associativity outside [1, 8], and
// name the LLC's type when asked for more ways; the LLC refuses fewer than
// 9 ways or more than its row's 20.
func TestCachePanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct {
		what  string
		build func()
		want  string
	}{
		{"NewCache(3, 2)", func() { NewCache(3, 2) }, "power of two"},
		{"NewCache(0, 2)", func() { NewCache(0, 2) }, "power of two"},
		{"NewCache(4, 0)", func() { NewCache(4, 0) }, "associativity"},
		{"NewCache(1, 9)", func() { NewCache(1, 9) }, "lastLevelCache"},
		{"NewCache(1, 128)", func() { NewCache(1, 128) }, "lastLevelCache"},
		{"cacheFor(20 MB, 64, 20)", func() { cacheFor(CacheSpec{20 << 20, 64, 20}, true) }, "lastLevelCache"},
		{"an 8-way LLC", func() { newLastLevelCache(CacheSpec{1 << 20, 64, 8}) }, "LLC associativity"},
		{"a 21-way LLC", func() { newLastLevelCache(CacheSpec{1 << 20, 64, 21}) }, "LLC associativity"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("%s panicked with %q, want a message containing %q", tc.what, msg, tc.want)
				}
			}()
			tc.build()
		}()
	}
}

// TestLLCKeyTooLargePanics: the LLC's 24-bit tags hold keys below 2^24
// times its set count. The largest such key probes; the next one panics
// with a message naming the fault rather than alias another block.
func TestLLCKeyTooLargePanics(t *testing.T) {
	l := newLastLevelCache(TableIII().LLC)
	top := uint64(1) << (llcTagBits + l.setBits)
	if l.probe(top-1, true) || !l.probe(top-1, true) {
		t.Fatalf("block %#x, the largest the 24-bit tags hold, did not miss and then hit", top-1)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "does not fit the 24-bit tags") {
			t.Errorf("probe(%#x) panicked with %q, want a message naming the 24-bit tags", top, msg)
		}
	}()
	l.probe(top, true)
}

// TestCacheKeyTooLargePanics: a way's tag holds keys below 2^32. The
// largest such key installs and hits; installing 2^32 panics with a
// message naming the fault rather than alias block 0.
func TestCacheKeyTooLargePanics(t *testing.T) {
	c := NewCache(4, 2)
	const top = uint64(1) << 32
	if c.lookup(top-1) || !c.lookup(top-1) {
		t.Fatalf("block %#x, the largest a tag holds, did not miss and then hit", top-1)
	}
	c.Access(0)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "does not fit a cache way's 32-bit tag") {
			t.Errorf("Access(%#x) panicked with %q, want a message naming the 32-bit tag", top, msg)
		}
	}()
	c.Access(top)
}

// TestLLCRowIsOneHostLine: a set's row fills one 64-byte host line.
func TestLLCRowIsOneHostLine(t *testing.T) {
	if got := unsafe.Sizeof(llcRow{}); got != 64 {
		t.Fatalf("an llcRow takes %d bytes, want 64", got)
	}
}
