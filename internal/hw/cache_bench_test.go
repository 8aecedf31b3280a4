package hw

import (
	"fmt"
	"math/rand"
	"testing"

	"streamscale/internal/sim"
)

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
				c.Access(uint64(i + j*64))
			}
			c.Access(uint64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i % hot))
		}
	})
	b.Run("hit-heavy", func(b *testing.B) {
		c := CacheFor(32<<10, 64, 8) // L1D-shaped: 64 sets x 8 ways
		const hot = 256              // 16 KB working set: fits, ~4 ways/set
		for i := 0; i < hot; i++ {
			c.Access(uint64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i % hot))
		}
	})
	b.Run("miss-heavy", func(b *testing.B) {
		c := CacheFor(32<<10, 64, 8)
		const span = 1 << 20 // 64 MB of lines: every access evicts
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i) % span)
		}
	})
	for _, shape := range []struct {
		name  string
		spec  CacheSpec
		probe func(CacheSpec) func(uint64) bool
	}{
		{"l2-random", TableIII().L2, func(cs CacheSpec) func(uint64) bool {
			return CacheFor(cs.CapacityBytes, cs.BlockBytes, cs.Assoc).Access
		}},
		{"llc-random", TableIII().LLC, func(cs CacheSpec) func(uint64) bool {
			l := newLastLevelCache(cs)
			return func(block uint64) bool { return l.probe(block, true) }
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			cs := shape.spec
			probe := shape.probe(cs)
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
				probe(next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probe(next())
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

// BenchmarkFetchCode measures FetchCode per code block on a Storm-shaped
// walk over one socket's 8 cores, round-robin. Each invocation fetches
// Storm's four hot regions (13, 11, 12 and 11 KB) and then one of four user
// regions (8, 10, 9 and 6 KB, in turn), each over 55–100% of its bytes as
// the simulator's executors fetch them. The regions sit where the simulator
// lays them out: 4 KB apart, the user regions after Storm's 10 MB of cold
// regions, in another index chunk. The extents come from a fixed seed.
func BenchmarkFetchCode(b *testing.B) {
	spec := TableIII()
	m := buildMachine(spec, spec.CoresPerSocket)
	type region struct {
		base  uint64
		bytes int
	}
	cursor := CodeBase
	place := func(kb int) region {
		r := region{cursor, kb << 10}
		cursor += uint64(kb<<10) + 4096
		return r
	}
	var hot, user []region
	for _, kb := range []int{13, 11, 12, 11} {
		hot = append(hot, place(kb))
	}
	for _, kb := range []int{160, 900, 9 << 10} { // Storm's cold regions, never fetched here
		place(kb)
	}
	for _, kb := range []int{8, 10, 9, 6} {
		user = append(user, place(kb))
	}
	// One invocation's fetches, as runtime_sim's fetchRegion sizes them.
	rng := rand.New(rand.NewSource(1))
	extent := func(r region) region {
		return region{r.base, int(float64(r.bytes) * (0.55 + 0.45*rng.Float64()))}
	}
	const invocations = 4096
	walks := make([][5]region, invocations)
	for i := range walks {
		for j, r := range hot {
			walks[i][j] = extent(r)
		}
		walks[i][4] = extent(user[i/spec.CoresPerSocket%len(user)])
	}
	var out CostVec
	var now sim.Cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := i % spec.CoresPerSocket
		for _, r := range walks[i%invocations] {
			now += m.FetchCode(core, r.base, r.bytes, now, &out)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.Ops().FetchBlocks), "ns/block")
}

// BenchmarkDataAccess measures the data walk per line on a tuple-shaped
// stream, over one socket's 8 cores and over 32 cores on four sockets. The
// cores take tuples round-robin, and each tuple walks nine lines: a
// 32-byte store to a fresh line bump-allocated from its socket's 1 MB young
// region (which wraps, so lines are written again), a load of the line
// the tuple four before stored (another core's, and in the four-socket
// stream sometimes another socket's), three 8-byte loads in 16 class pages
// of 4 KB on socket 0, and four 8-byte loads at random over its socket's
// 1 MB state region. The loads' offsets come from a fixed seed.
func BenchmarkDataAccess(b *testing.B) {
	spec := TableIII()
	for _, sockets := range []int{1, 4} {
		b.Run(fmt.Sprintf("sockets=%d", sockets), func(b *testing.B) {
			const (
				tuples     = 4096
				lag        = 4
				youngLines = 1 << 14
				classBase  = 64 << 20
				classBytes = 16 << 12
				stateBase  = 128 << 20
				stateBytes = 1 << 20
			)
			cores := sockets * spec.CoresPerSocket
			m := buildMachine(spec, cores)
			type tuple struct {
				class [3]uint64 // addresses
				state [4]uint64 // offsets, on the tuple's socket
			}
			rng := rand.New(rand.NewSource(1))
			ts := make([]tuple, tuples)
			for i := range ts {
				for j := range ts[i].class {
					ts[i].class[j] = DataAddr(0, classBase+uint64(rng.Intn(classBytes/8))*8)
				}
				for j := range ts[i].state {
					ts[i].state[j] = stateBase + uint64(rng.Intn(stateBytes/8))*8
				}
			}
			bump := make([]uint64, sockets)
			var stored [lag]uint64
			var out CostVec
			var now sim.Cycles
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core := i % cores
				sock := core / spec.CoresPerSocket
				t := &ts[i%tuples]
				addr := DataAddr(sock, bump[sock]%youngLines*LineBytes)
				bump[sock]++
				now += m.DataWrite(core, addr, 32, now, &out)
				if prev := stored[i%lag]; prev != 0 {
					now += m.DataAccess(core, prev, 32, now, &out)
				}
				stored[i%lag] = addr
				for _, a := range t.class {
					now += m.DataAccess(core, a, 8, now, &out)
				}
				for _, off := range t.state {
					now += m.DataAccess(core, DataAddr(sock, off), 8, now, &out)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.Ops().DataLines), "ns/line")
		})
	}
}
