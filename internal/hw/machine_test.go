package hw

import (
	"runtime"
	"runtime/debug"
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

func TestFetchCodeWarmPathIsFree(t *testing.T) {
	m := NewMachine(testSpec())
	var cold, warm CostVec
	c1 := m.FetchCode(0, CodeBase, 4096, 0, &cold)
	c2 := m.FetchCode(0, CodeBase, 4096, c1, &warm)
	if c1 <= 0 {
		t.Fatal("cold code fetch was free")
	}
	if cold[FeL1I] == 0 {
		t.Fatal("cold fetch did not charge L1I misses")
	}
	// 4 KB fits in both L1I and the µop cache: fully free when warm.
	if c2 != 0 {
		t.Fatalf("warm fetch of cached code cost %d, want 0", c2)
	}
}

func TestFetchCodeUopCacheTooSmall(t *testing.T) {
	spec := testSpec()
	m := NewMachine(spec)
	size := 16 << 10 // fits L1I (32 KB) but not the 6 KB µop cache
	var cold CostVec
	m.FetchCode(0, CodeBase, size, 0, &cold)
	var warm CostVec
	c := m.FetchCode(0, CodeBase, size, 0, &warm)
	if c == 0 {
		t.Fatal("warm fetch of µop-cache-exceeding code was free")
	}
	if warm[FeL1I] != 0 {
		t.Fatalf("16 KB region missed L1I when warm: %+v", warm)
	}
	if warm[FeILD] == 0 || warm[FeIDQ] == 0 {
		t.Fatalf("legacy decode not charged: %+v", warm)
	}
}

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
// 1.2% above the 16,890,432 bytes measured (16,892,736 under -race). Its
// four 20-way LLCs are most of it, at 208 bytes per set; with a last-use
// tick per way and an MRU hint per set, a machine took 37,127,648 bytes.
const machineFootprintCeiling = 17_100_000

// TestMachineFootprint measures the bytes (runtime.MemStats.TotalAlloc, GC
// off) that building a Table III machine allocates. They must stay under
// machineFootprintCeiling and above 90% of it, so that a cut has to lower
// the ceiling with it.
func TestMachineFootprint(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMachine(TableIII())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewMachine(TableIII()) allocated %d bytes", bytes)
	if bytes > machineFootprintCeiling {
		t.Fatalf("NewMachine(TableIII()) allocated %d bytes, above the ceiling %d", bytes, machineFootprintCeiling)
	}
	if bytes < machineFootprintCeiling*9/10 {
		t.Fatalf("NewMachine(TableIII()) allocated %d bytes, under 90%% of the ceiling %d: lower machineFootprintCeiling", bytes, machineFootprintCeiling)
	}
}
