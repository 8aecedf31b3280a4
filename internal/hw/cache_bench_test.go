package hw

import "testing"

// BenchmarkCacheAccess measures the per-lookup cost of the set-associative
// cache model under the regimes the simulator lives in. On a 64-set cache
// that fits the host's L1: a repeat-heavy mix (the same few blocks
// re-probed back to back, as the TLBs and L1D see from a tuple's
// metadata/state accesses), a hit-heavy mix (a hot working set smaller than
// the cache, cycled round-robin) and a miss-heavy mix (streaming a working
// set far larger than the cache, so every access evicts). On arrays shaped
// like the simulated L2 and LLC, which miss the host's caches as the
// simulator's probes do: random data lines spanning four times the
// capacity, so three probes in four miss.
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("repeat-heavy", func(b *testing.B) {
		c := CacheFor(32<<10, 64, 8) // L1D-shaped: 64 sets x 8 ways
		// One hot block per set across 8 sets, each behind seven colder
		// ways — a resident line lands on an arbitrary way, so a plain
		// scan pays mismatches before finding it, while the MRU hint
		// matches on the first probe regardless of way position.
		const hot = 8
		for i := 0; i < hot; i++ {
			for j := 1; j < 8; j++ {
				c.AccessV(uint64(i+j*64), 0)
			}
			c.AccessV(uint64(i), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i%hot), 0)
		}
	})
	b.Run("hit-heavy", func(b *testing.B) {
		c := CacheFor(32<<10, 64, 8) // L1D-shaped: 64 sets x 8 ways
		const hot = 256              // 16 KB working set: fits, ~4 ways/set
		for i := 0; i < hot; i++ {
			c.AccessV(uint64(i), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i%hot), 0)
		}
	})
	b.Run("miss-heavy", func(b *testing.B) {
		c := CacheFor(32<<10, 64, 8)
		const span = 1 << 20 // 64 MB of lines: every access evicts
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i)%span, 0)
		}
	})
	for _, shape := range []struct {
		name string
		spec CacheSpec
	}{{"l2-random", TableIII().L2}, {"llc-random", TableIII().LLC}} {
		b.Run(shape.name, func(b *testing.B) {
			cs := shape.spec
			c := CacheFor(cs.CapacityBytes, cs.BlockBytes, cs.Assoc)
			base := DataAddr(0, 0) / LineBytes
			span := uint64(4 * cs.CapacityBytes / cs.BlockBytes)
			x := uint64(88172645463325252)
			next := func() uint64 { // xorshift64
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return base + x%span
			}
			for i := uint64(0); i < span; i++ {
				c.AccessV(next(), 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.AccessV(next(), 0)
			}
		})
	}
}

// BenchmarkMachineReset measures Machine.Reset after a touch the size of a
// four-socket cell: every core reads 1,536 lines of its socket's memory
// (49,152 lines, about the 46,043 LLC misses of sim-cells' wc/storm
// four-socket cell) and fetches 16 KB of code. Only the reset is timed.
func BenchmarkMachineReset(b *testing.B) {
	m := NewMachine(TableIII())
	var out CostVec
	touch := func() {
		for core := 0; core < m.Spec.TotalCores(); core++ {
			sock := m.SocketOfCore(core)
			base := DataAddr(sock, uint64(core)<<20)
			for i := uint64(0); i < 1536; i++ {
				m.DataAccess(core, base+i*LineBytes, 8, 0, &out)
			}
			m.FetchCode(core, CodeBase+uint64(core)<<14, 16<<10, 0, &out)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		touch()
		b.StartTimer()
		m.Reset()
	}
}
