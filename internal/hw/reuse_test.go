package hw

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamscale/internal/sim"
)

// machineTrace is everything a machine returns over one random workload.
type machineTrace struct {
	cycles     []sim.Cycles
	costs      []CostVec
	footprints []int
	ops        Ops
	charged    sim.Cycles
}

// driveMachine issues n random calls of every charging method across the
// machine's first cores cores: data reads and writes over a few MB of every
// socket's memory, code fetches of regions up to 40 KB (past L1I) with
// their invocations noted, streaming sweeps, compute, and occasional clock
// jumps past the channels' retained window history.
func driveMachine(m *Machine, cores int, seed int64, n int) machineTrace {
	rng := rand.New(rand.NewSource(seed))
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
// counts and ledger — twice over, and through the free list too. So does a
// machine built for one socket, driven on it, reset and then built for its
// other cores.
func TestMachineResetMatchesFresh(t *testing.T) {
	spec := testSpec()
	all := spec.TotalCores()
	reused := NewMachine(spec)
	driveMachine(reused, all, 1, 20000)
	reused.Reset()
	slice := buildMachine(spec, spec.CoresPerSocket)
	driveMachine(slice, spec.CoresPerSocket, 1, 20000)
	slice.Reset()
	slice.build(all)
	for _, seed := range []int64{2, 3} {
		want := driveMachine(NewMachine(spec), all, seed, 20000)
		if want.ops.LLC.Hits == 0 || want.ops.STLB.Misses == 0 {
			t.Fatalf("seed %d: the workload leaves a level idle: %+v", seed, want.ops)
		}
		sameTrace(t, fmt.Sprintf("seed %d, reset machine", seed), want, driveMachine(reused, all, seed, 20000))
		if seed == 2 {
			sameTrace(t, "seed 2, one-socket machine built up", want, driveMachine(slice, all, seed, 20000))
		}
		ReleaseMachine(reused)
		if reused = AcquireMachine(spec, all); reused.ChargedCycles() != 0 || reused.Ops() != (Ops{}) {
			t.Fatalf("a released machine came back with ledger %d and ops %+v", reused.ChargedCycles(), reused.Ops())
		}
	}
}

// sameTrace fails the test unless got answered every call as want did.
func sameTrace(t *testing.T, what string, want, got machineTrace) {
	t.Helper()
	if !slices.Equal(want.cycles, got.cycles) {
		t.Fatalf("%s: cycle counts differ from a fresh machine's", what)
	}
	if !slices.Equal(want.costs, got.costs) {
		t.Fatalf("%s: cost vectors differ from a fresh machine's", what)
	}
	if !slices.Equal(want.footprints, got.footprints) {
		t.Fatalf("%s: instruction footprints differ from a fresh machine's", what)
	}
	if want.ops != got.ops || want.charged != got.charged {
		t.Fatalf("%s: ops %+v charged %d, fresh machine %+v %d", what, got.ops, got.charged, want.ops, want.charged)
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
