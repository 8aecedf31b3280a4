package hw

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
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
	c := CacheFor(32<<10, 64, 8)
	if got := c.Sets(); got != 64 {
		t.Fatalf("sets = %d, want 64", got)
	}
	if c.Assoc() != 8 {
		t.Fatalf("assoc = %d, want 8", c.Assoc())
	}
}

// CacheFor and the LLC round the set count down to a power of two; pin the
// effective capacity of every Table III cache level (all divide exactly —
// no bytes are shed) and document shapes that do lose capacity.
func TestCacheForEffectiveBytes(t *testing.T) {
	spec := TableIII()
	llcBytes := func(cs CacheSpec) int {
		return int(newLastLevelCache(cs).setMask+1) * cs.Assoc * cs.BlockBytes
	}
	for _, tc := range []struct {
		name string
		cs   CacheSpec
	}{
		{"L1I", spec.L1I},
		{"L1D", spec.L1D},
		{"L2", spec.L2},
	} {
		c := CacheFor(tc.cs.CapacityBytes, tc.cs.BlockBytes, tc.cs.Assoc)
		if got := c.EffectiveBytes(); got != tc.cs.CapacityBytes {
			t.Errorf("%s: effective = %d bytes, want the requested %d", tc.name, got, tc.cs.CapacityBytes)
		}
	}
	if got := llcBytes(spec.LLC); got != spec.LLC.CapacityBytes {
		t.Errorf("LLC: effective = %d bytes, want the requested %d", got, spec.LLC.CapacityBytes)
	}

	// A 384 KB, 8-way, 64 B-line request computes 768 sets, which rounds
	// down to 512: only 256 KB of the requested capacity is indexable.
	c := CacheFor(384<<10, 64, 8)
	if got := c.EffectiveBytes(); got != 256<<10 {
		t.Errorf("384 KB request: effective = %d bytes, want %d (rounding documented in CacheFor)", got, 256<<10)
	}
	if got := c.Sets(); got != 512 {
		t.Errorf("384 KB request: sets = %d, want 512", got)
	}
	// So does a 24 MB, 20-way LLC: 19660 sets round down to 16384, 20 MB.
	if got := llcBytes(CacheSpec{24 << 20, 64, 20}); got != 20<<20 {
		t.Errorf("24 MB LLC: effective = %d bytes, want %d", got, 20<<20)
	}

	// NewCache has no block granularity (TLBs key by page number).
	if got := NewCache(16, 4).EffectiveBytes(); got != 0 {
		t.Errorf("NewCache effective bytes = %d, want 0", got)
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

// TestCachePanicsOnBadShape: NewCache and CacheFor refuse a set count that
// is not a positive power of two and an associativity outside [1, 8], and
// name the LLC's type when asked for more ways.
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
		{"CacheFor(20 MB, 64, 20)", func() { CacheFor(20<<20, 64, 20) }, "lastLevelCache"},
		{"an 8-way LLC", func() { newLastLevelCache(CacheSpec{1 << 20, 64, 8}) }, "LLC associativity"},
		{"a 128-way LLC", func() { newLastLevelCache(CacheSpec{1 << 20, 64, 128}) }, "LLC associativity"},
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

// TestLLCKeyTooLargePanics: the LLC's packed tags hold keys below 2^32-1
// times its set count. The largest such key probes; the next one panics
// with a message naming the fault rather than alias another block.
func TestLLCKeyTooLargePanics(t *testing.T) {
	l := newLastLevelCache(TableIII().LLC)
	top := (uint64(1)<<32 - 1) << l.setBits
	if l.probe(top-1, true) || !l.probe(top-1, true) {
		t.Fatalf("block %#x, the largest the packed tags hold, did not miss and then hit", top-1)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "does not fit the packed tags") {
			t.Errorf("probe(%#x) panicked with %q, want a message naming the packed tags", top, msg)
		}
	}()
	l.probe(top, true)
}
