package hw

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"streamscale/internal/sim"
)

func testSpec() MachineSpec { return TableIII() }

func TestAddrRoundTrip(t *testing.T) {
	for sk := 0; sk < 4; sk++ {
		a := DataAddr(sk, 0xdeadbe)
		if !IsData(a) {
			t.Fatalf("DataAddr(%d) not recognized as data", sk)
		}
		if HomeSocket(a) != sk {
			t.Fatalf("home = %d, want %d", HomeSocket(a), sk)
		}
		if Offset(a) != 0xdeadbe {
			t.Fatalf("offset = %#x, want 0xdeadbe", Offset(a))
		}
	}
	if IsData(CodeBase + 100) {
		t.Fatal("code address classified as data")
	}
}

func TestDataAccessColdThenWarm(t *testing.T) {
	m := NewMachine(testSpec())
	addr := DataAddr(0, 4096)
	var cold, warm CostVec
	c1 := m.DataAccess(0, addr, 64, 0, &cold)
	c2 := m.DataAccess(0, addr, 64, c1, &warm)
	if c1 <= 0 {
		t.Fatalf("cold access cost = %d, want > 0", c1)
	}
	if c2 != 0 {
		t.Fatalf("warm access cost = %d, want 0 (L1 hit, TLB hit)", c2)
	}
	if cold[BeLLCLocal] == 0 {
		t.Fatal("cold local access did not charge LLC-miss-local")
	}
	if cold[BeLLCRemote] != 0 {
		t.Fatal("local access charged remote bucket")
	}
}

func TestDataAccessRemoteCostsMore(t *testing.T) {
	// Same access pattern from core 0 (socket 0): remote-homed data must
	// cost strictly more than local-homed data.
	mLocal := NewMachine(testSpec())
	mRemote := NewMachine(testSpec())
	var a, b CostVec
	local := mLocal.DataAccess(0, DataAddr(0, 0), 64, 0, &a)
	remote := mRemote.DataAccess(0, DataAddr(2, 0), 64, 0, &b)
	if remote <= local {
		t.Fatalf("remote cost %d <= local cost %d", remote, local)
	}
	if b[BeLLCRemote] == 0 {
		t.Fatal("remote access did not charge the remote bucket")
	}
	if mRemote.QPIBytes() == 0 {
		t.Fatal("remote access moved no QPI bytes")
	}
	if mLocal.QPIBytes() != 0 {
		t.Fatal("local access moved QPI bytes")
	}
}

func TestDataAccessSpansLines(t *testing.T) {
	m := NewMachine(testSpec())
	var v CostVec
	// 256 bytes starting at a line boundary: 4 lines; all cold.
	m.DataAccess(0, DataAddr(0, 0), 256, 0, &v)
	if got := m.DRAMBytes(0); got != 4*LineBytes {
		t.Fatalf("DRAM bytes = %d, want %d", got, 4*LineBytes)
	}
	// Unaligned 2-byte access crossing a line boundary touches 2 lines.
	m2 := NewMachine(testSpec())
	m2.DataAccess(0, DataAddr(0, 63), 2, 0, &v)
	if got := m2.DRAMBytes(0); got != 2*LineBytes {
		t.Fatalf("unaligned DRAM bytes = %d, want %d", got, 2*LineBytes)
	}
}

func TestDataAccessHierarchyBuckets(t *testing.T) {
	spec := testSpec()
	m := NewMachine(spec)
	addr := DataAddr(0, 1<<20)

	var v1 CostVec
	m.DataAccess(0, addr, 64, 0, &v1) // cold: DRAM

	// Evict from L1 by streaming > 32 KB of other lines, keeping L2.
	var junk CostVec
	for off := uint64(0); off < 64<<10; off += 64 {
		m.DataAccess(0, DataAddr(0, 2<<20+off), 64, 0, &junk)
	}
	var v2 CostVec
	m.DataAccess(0, addr, 64, 0, &v2)
	if v2[BeL1D] == 0 {
		t.Fatalf("expected L2 hit after L1 eviction, got %+v", v2)
	}
	if v2[BeLLCLocal] != 0 {
		t.Fatalf("re-access went to DRAM, expected L2: %+v", v2)
	}
}

// checkWarmFetchPaysDecode fetches size bytes of code twice on a fresh
// machine. The cold fetch must charge L1I misses; the warm one, with the code
// resident in the 32 KB L1I, charges legacy decode, ILDPerBlock + IDQPerBlock
// per block, and nothing else: no L1I miss, no switch penalty, no ITLB miss.
func checkWarmFetchPaysDecode(t *testing.T, size int) {
	t.Helper()
	spec := testSpec()
	m := NewMachine(spec)
	var cold, warm CostVec
	c1 := m.FetchCode(0, CodeBase, size, 0, &cold)
	if c1 <= 0 || cold[FeL1I] == 0 {
		t.Fatalf("%d B: cold fetch charged %d cycles, %d of them L1I misses", size, c1, cold[FeL1I])
	}
	c2 := m.FetchCode(0, CodeBase, size, c1, &warm)
	blocks := sim.Cycles(size / spec.L1I.BlockBytes)
	var want CostVec
	want.Add(FeILD, blocks*spec.Decode.ILDPerBlock)
	want.Add(FeIDQ, blocks*spec.Decode.IDQPerBlock)
	if warm != want || c2 != want.Total() {
		t.Fatalf("%d B: warm fetch charged %d cycles as %+v, want %d as %+v", size, c2, warm, want.Total(), want)
	}
}

// TestFetchCodeWarmPathIsFree: a warm fetch of 4 KB of code is free of fetch
// misses. The model holds no decoded-µop cache, so it still pays legacy decode.
func TestFetchCodeWarmPathIsFree(t *testing.T) { checkWarmFetchPaysDecode(t, 4<<10) }

// TestFetchCodeUopCacheTooSmall: 16 KB of code, more than a 6 KB decoded-µop
// cache would hold, fits L1I: a warm fetch pays legacy decode and no L1I miss.
func TestFetchCodeUopCacheTooSmall(t *testing.T) { checkWarmFetchPaysDecode(t, 16<<10) }

func TestFetchCodeThrashBetweenFunctions(t *testing.T) {
	// Two 24 KB functions do not fit a 32 KB L1I together: alternating
	// invocations must keep missing (the paper's L1I thrashing).
	m := NewMachine(testSpec())
	a, b := CodeBase, CodeBase+uint64(1<<20)
	var v CostVec
	m.FetchCode(0, a, 24<<10, 0, &v)
	m.FetchCode(0, b, 24<<10, 0, &v)
	var again CostVec
	m.FetchCode(0, a, 24<<10, 0, &again)
	if again[FeL1I] == 0 {
		t.Fatal("no L1I misses when re-fetching thrashed code")
	}
}

// TestFetchCodeOutOfRangePanics: a fetch below CodeBase, or one reaching
// past the blocks the L1I index holds, panics with a message naming the
// fault rather than alias another block. The index's last block fetches.
func TestFetchCodeOutOfRangePanics(t *testing.T) {
	m := buildMachine(testSpec(), 1)
	block := uint64(testSpec().L1I.BlockBytes)
	top := CodeBase + maxCodeBlocks*block
	var v CostVec
	m.FetchCode(0, top-block, int(block), 0, &v)
	for _, c := range []struct {
		base uint64
		size int
		want string
	}{
		{CodeBase - block, int(block), "below CodeBase"},
		{top - block, 2 * int(block), "runs past"},
		{top, 1, "runs past"},
		{CodeBase, math.MaxInt, "runs past"},
		{math.MaxUint64 - 100, int(block), "runs past"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("FetchCode(%#x, %d) panicked with %q, want a message containing %q", c.base, c.size, msg, c.want)
				}
			}()
			m.FetchCode(0, c.base, c.size, 0, &v)
		}()
	}
}

func TestComputeCharges(t *testing.T) {
	m := NewMachine(testSpec())
	var v CostVec
	c := m.Compute(1000, 2, &v)
	if v[TC] == 0 || v[TBr] != 2*m.Spec.MispredictPenalty {
		t.Fatalf("compute charge wrong: %+v", v)
	}
	if c != v[TC]+v[TBr] {
		t.Fatalf("returned %d, want %d", c, v[TC]+v[TBr])
	}
	if m.Compute(0, 0, &v) != 0 {
		t.Fatal("zero uops charged cycles")
	}
}

func TestNoteInvocationFootprint(t *testing.T) {
	m := NewMachine(testSpec())
	const fnA, fnB, fnC = 1, 2, 3
	if got := m.NoteInvocation(0, fnA, 1000); got != -1 {
		t.Fatalf("first invocation footprint = %d, want -1", got)
	}
	m.NoteInvocation(0, fnB, 500)
	m.NoteInvocation(0, fnC, 300)
	if got := m.NoteInvocation(0, fnA, 1000); got != 800 {
		t.Fatalf("footprint = %d, want 800 (B+C executed in between)", got)
	}
	// Immediately repeated invocation: nothing else in between.
	if got := m.NoteInvocation(0, fnA, 1000); got != 0 {
		t.Fatalf("back-to-back footprint = %d, want 0", got)
	}
	// Footprints are per-core.
	if got := m.NoteInvocation(1, fnA, 1000); got != -1 {
		t.Fatalf("other-core first invocation = %d, want -1", got)
	}
}

func TestChannelQueueing(t *testing.T) {
	ch := NewChannelWindow(1.0, 10) // 1 byte/cycle, 10-byte windows
	// 25 bytes at t=0: windows 0,1 fill, 5 bytes spill to window 2.
	if w := ch.Transfer(0, 25); w != 20 {
		t.Fatalf("saturating transfer waited %d, want 20", w)
	}
	// 10 more at t=5: 5 fit window 2, 5 spill to window 3 -> wait 30-5.
	if w := ch.Transfer(5, 10); w != 25 {
		t.Fatalf("queued transfer waited %d, want 25", w)
	}
	// Far in the future the channel is idle again.
	if w := ch.Transfer(200, 10); w != 0 {
		t.Fatalf("idle transfer waited %d, want 0", w)
	}
	if ch.Bytes() != 45 {
		t.Fatalf("bytes = %d, want 45", ch.Bytes())
	}
	if got := ch.Utilization(90); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestChannelOrderInsensitive(t *testing.T) {
	// Two requests in overlapping windows must see the same total wait
	// regardless of arrival order (the discrete-event engine delivers
	// overlapping execution windows out of order).
	run := func(order [][2]int) sim.Cycles {
		ch := NewChannelWindow(1.0, 10)
		var total sim.Cycles
		for _, r := range order {
			total += ch.Transfer(sim.Cycles(r[0]), r[1])
		}
		return total
	}
	a := run([][2]int{{0, 15}, {3, 15}})
	b := run([][2]int{{3, 15}, {0, 15}})
	if a != b {
		t.Fatalf("order-dependent waits: %d vs %d", a, b)
	}
}

func TestChannelLightLoadNeverWaits(t *testing.T) {
	ch := NewChannel(21.3) // DRAM-like
	for i := 0; i < 1000; i++ {
		if w := ch.Transfer(sim.Cycles(i*100), 64); w != 0 {
			t.Fatalf("light load waited %d at access %d", w, i)
		}
	}
}

func TestDRAMUtilizationSelectsSockets(t *testing.T) {
	m := NewMachine(testSpec())
	var v CostVec
	for off := uint64(0); off < 1<<20; off += 64 {
		m.DataAccess(0, DataAddr(0, off), 64, sim.Cycles(off), &v)
	}
	if m.DRAMUtilization([]int{0}, 1<<20) <= 0 {
		t.Fatal("socket 0 utilization is zero after heavy traffic")
	}
	if m.DRAMUtilization([]int{1}, 1<<20) != 0 {
		t.Fatal("socket 1 shows utilization without traffic")
	}
}

// machineFootprintCeiling bounds the bytes NewMachine(TableIII()) allocates:
// 0.7% above the 11,714,264 bytes measured, and set 31% below the
// 17,029,832 a machine took while its LLCs kept a coherence version per way
// (1.31 MB per socket) and a hashed table held each written line's state.
// Its four 20-way LLCs are most of it, at 128 bytes per set; with a
// last-use tick per way and an MRU hint per set, a machine took 37,127,648
// bytes.
const machineFootprintCeiling = 11_800_000

// sliceFootprintCeiling bounds the bytes a Table III machine built for its
// first socket's 8 cores allocates: 0.6% above the 2,933,360 bytes
// measured, and set 32% below the 4,308,320 a slice took while its LLC kept
// versions. One LLC and 8 cores' private caches are most of it; the other
// sockets' DRAM channels and QPI links are built too.
const sliceFootprintCeiling = 2_950_000

// TestMachineFootprint measures the bytes (runtime.MemStats.TotalAlloc, GC
// off) that building a Table III machine allocates: whole, built for one
// socket, and built for one socket and then for every core. Each must stay
// under its ceiling and above 90% of it, so that a cut has to lower the
// ceiling with it.
func TestMachineFootprint(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spec := TableIII()
	for _, c := range []struct {
		what    string
		build   func() *Machine
		ceiling uint64
	}{
		{"NewMachine(TableIII())", func() *Machine { return NewMachine(spec) }, machineFootprintCeiling},
		{"a one-socket Table III machine", func() *Machine { return buildMachine(spec, spec.CoresPerSocket) }, sliceFootprintCeiling},
		{"a one-socket Table III machine built up to every core", func() *Machine {
			m := buildMachine(spec, spec.CoresPerSocket)
			m.build(spec.TotalCores())
			return m
		}, machineFootprintCeiling},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := c.build()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s allocated %d bytes", c.what, bytes)
		if bytes > c.ceiling {
			t.Fatalf("%s allocated %d bytes, above the ceiling %d", c.what, bytes, c.ceiling)
		}
		if bytes < c.ceiling*9/10 {
			t.Fatalf("%s allocated %d bytes, under 90%% of the ceiling %d: lower the ceiling", c.what, bytes, c.ceiling)
		}
	}
}
