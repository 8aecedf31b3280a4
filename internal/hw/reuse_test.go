package hw

import (
	"math/rand"
	"slices"
	"testing"

	"streamscale/internal/sim"
)

// TestUopRing pins the decoded-µop cache's LRU behaviour through FetchCode.
// Table III's µop cache holds 12 of L1I's 512 B blocks; L1I has 8 sets of 8
// ways, so blocks 8 apart share a set. A one-byte fetch of a resident block
// is an L1I hit, and it charges legacy decode exactly when the µop cache
// misses.
func TestUopRing(t *testing.T) {
	spec := testSpec()
	if n := spec.Decode.UopCacheBytes / spec.L1I.BlockBytes; n != 12 {
		t.Fatalf("µop cache holds %d blocks, the test assumes 12", n)
	}
	var m *Machine
	fetch := func(blocks ...int) {
		t.Helper()
		for _, b := range blocks {
			var v CostVec
			m.FetchCode(0, CodeBase+uint64(b*spec.L1I.BlockBytes), 1, 0, &v)
		}
	}
	// decodes fetches resident block b and reports whether the µop cache
	// missed it.
	decodes := func(b int) bool {
		t.Helper()
		var v CostVec
		m.FetchCode(0, CodeBase+uint64(b*spec.L1I.BlockBytes), 1, 0, &v)
		if v[FeL1I] != 0 {
			t.Fatalf("block %d missed L1I", b)
		}
		return v[FeILD] != 0
	}

	// An L1I eviction drops the evicted block's µops. Block 1 is the least
	// recent µop entry; block 0 is L1I set 0's least recent block, behind
	// 7 more blocks of set 0 and 3 of other sets (12 entries). Block 64
	// evicts block 0 from L1I, so its µops go and block 1's stay.
	m = NewMachine(spec)
	fetch(1, 0, 8, 16, 24, 32, 40, 48, 56, 2, 3, 4, 64)
	if decodes(1) {
		t.Error("an L1I eviction left its block's µops in place: the 13th entry evicted the least recent one")
	}

	// A 13th distinct block evicts the least recent entry.
	m = NewMachine(spec)
	fetch(0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13)
	if decodes(13) {
		t.Error("the most recent block lost its µops")
	}
	if !decodes(0) {
		t.Error("the least recent block kept its µops past a 13th block")
	}

	// A hit refreshes recency: block 0 is hit before block 13 arrives, so
	// block 1 is the one evicted.
	m = NewMachine(spec)
	fetch(0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12)
	if decodes(0) {
		t.Error("a block among 12 missed the µop cache")
	}
	fetch(13)
	if decodes(0) {
		t.Error("a µop hit did not refresh the block's recency")
	}
	if !decodes(1) {
		t.Error("the least recent block kept its µops past a 13th block")
	}
}

// machineTrace is everything a machine returns over one random workload.
type machineTrace struct {
	cycles     []sim.Cycles
	costs      []CostVec
	footprints []int
	ops        Ops
	charged    sim.Cycles
}

// driveMachine issues n random calls of every charging method across cores
// and sockets: data reads and writes over a few MB per socket, code fetches
// of regions up to 40 KB (past L1I) with their invocations noted, streaming
// sweeps, compute, and occasional clock jumps past the channels' retained
// window history.
func driveMachine(m *Machine, seed int64, n int) machineTrace {
	rng := rand.New(rand.NewSource(seed))
	cores := m.Spec.TotalCores()
	var tr machineTrace
	now := sim.Cycles(0)
	for i := 0; i < n; i++ {
		core := rng.Intn(cores)
		var v CostVec
		var c sim.Cycles
		switch op := rng.Intn(10); {
		case op < 4:
			addr := DataAddr(rng.Intn(m.Spec.Sockets), uint64(rng.Intn(4<<20)))
			if op == 0 {
				c = m.DataWrite(core, addr, 1+rng.Intn(256), now, &v)
			} else {
				c = m.DataAccess(core, addr, 1+rng.Intn(256), now, &v)
			}
		case op < 8:
			fn := uint32(rng.Intn(24))
			size := 64 + rng.Intn(40<<10)
			tr.footprints = append(tr.footprints, m.NoteInvocation(core, fn, size))
			c = m.FetchCode(core, CodeBase+uint64(fn)<<20, size, now, &v)
		case op == 8:
			addr := DataAddr(rng.Intn(m.Spec.Sockets), uint64(rng.Intn(1<<20)))
			c = m.StreamAccess(core, addr, 1+rng.Intn(1<<20), now, &v)
		default:
			c = m.Compute(rng.Intn(2000), rng.Intn(4), &v)
		}
		tr.cycles = append(tr.cycles, c)
		tr.costs = append(tr.costs, v)
		now += c + sim.Cycles(rng.Intn(500))
		if rng.Intn(2000) == 0 {
			now += 400 << 20 // past retainWindows of every channel
		}
	}
	tr.ops, tr.charged = m.Ops(), m.ChargedCycles()
	return tr
}

// TestMachineResetMatchesFresh: a machine that ran an unrelated workload
// over the same addresses and was then reset answers every call of a
// random workload exactly as a new machine does, with the same operation
// counts and ledger — twice over, and through the free list too.
func TestMachineResetMatchesFresh(t *testing.T) {
	spec := testSpec()
	reused := NewMachine(spec)
	driveMachine(reused, 1, 20000)
	reused.Reset()
	for _, seed := range []int64{2, 3} {
		want := driveMachine(NewMachine(spec), seed, 20000)
		got := driveMachine(reused, seed, 20000)
		if !slices.Equal(want.cycles, got.cycles) {
			t.Fatalf("seed %d: cycle counts differ from a fresh machine's", seed)
		}
		if !slices.Equal(want.costs, got.costs) {
			t.Fatalf("seed %d: cost vectors differ from a fresh machine's", seed)
		}
		if !slices.Equal(want.footprints, got.footprints) {
			t.Fatalf("seed %d: instruction footprints differ from a fresh machine's", seed)
		}
		if want.ops != got.ops || want.charged != got.charged {
			t.Fatalf("seed %d: ops %+v charged %d, fresh machine %+v %d", seed, got.ops, got.charged, want.ops, want.charged)
		}
		if want.ops.Uop.Hits == 0 || want.ops.LLC.Hits == 0 || want.ops.STLB.Misses == 0 {
			t.Fatalf("seed %d: the workload leaves a level idle: %+v", seed, want.ops)
		}
		ReleaseMachine(reused)
		if reused = AcquireMachine(spec); reused.ChargedCycles() != 0 || reused.Ops() != (Ops{}) {
			t.Fatalf("a released machine came back with ledger %d and ops %+v", reused.ChargedCycles(), reused.Ops())
		}
	}
}

// refChannel is Channel's window accounting before its ring: a slice that
// grows at the back and is re-sliced at the front.
type refChannel struct {
	rate   float64
	window sim.Cycles
	base   int64
	ring   []float64
}

func (ch *refChannel) transfer(now sim.Cycles, bytes int) sim.Cycles {
	w := int64(now / ch.window)
	if w-ch.base > retainWindows {
		newBase := w - retainWindows
		if drop := newBase - ch.base; drop >= int64(len(ch.ring)) {
			ch.ring = ch.ring[:0]
		} else {
			ch.ring = ch.ring[drop:]
		}
		ch.base = newBase
	}
	w = max(w, ch.base)
	capPerWin := ch.rate * float64(ch.window)
	remaining := float64(bytes)
	i := w
	for remaining > 0 {
		idx := i - ch.base
		for int64(len(ch.ring)) <= idx {
			ch.ring = append(ch.ring, 0)
		}
		if free := capPerWin - ch.ring[idx]; free > 0 {
			take := min(free, remaining)
			ch.ring[idx] += take
			remaining -= take
		}
		if remaining > 0 {
			if i-w >= maxSpillWindows {
				break
			}
			i++
		}
	}
	if i == w {
		return 0
	}
	return max(sim.Cycles(i)*ch.window-now, 0)
}

// TestChannelRingMatchesGrowingSlice: the power-of-two ring books every
// transfer as the old growing slice did — through growth, history drops
// after clock jumps past retainWindows, requests older than the base,
// spills past the ring's length, a saturating sweep, and a Reset.
func TestChannelRingMatchesGrowingSlice(t *testing.T) {
	ch := NewChannelWindow(1.0, 10)
	for _, seed := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(seed))
		ref := &refChannel{rate: 1.0, window: 10}
		now := sim.Cycles(0)
		for i := 0; i < 20000; i++ {
			at := now - sim.Cycles(rng.Intn(2000)) // some requests arrive late
			if rng.Intn(1000) == 0 {
				at -= retainWindows * 20 // older than the retained history
			}
			at = max(at, 0)
			bytes := 1 + rng.Intn(10)
			if rng.Intn(5000) == 0 {
				bytes = 1 << 14 // a sweep that spills past the first ring size
			}
			if got, want := ch.Transfer(at, bytes), ref.transfer(at, bytes); got != want {
				t.Fatalf("seed %d transfer %d at %d (%d B): wait %d, growing slice %d", seed, i, at, bytes, got, want)
			}
			now += sim.Cycles(rng.Intn(30))
			if rng.Intn(3000) == 0 {
				now += sim.Cycles(rng.Intn(3)) * retainWindows * 10
			}
		}
		// A sweep longer than maxSpillWindows saturates.
		if got, want := ch.Transfer(now, 1<<20), ref.transfer(now, 1<<20); got != want {
			t.Fatalf("seed %d saturating transfer: wait %d, growing slice %d", seed, got, want)
		}
		ch.Reset()
	}
}
