package ring

import (
	"os"
	"runtime"
	"sync"
	"testing"
)

// TestRingStress is the high-iteration race-detector stress test ci.sh
// runs with DSP_STRESS=1 and -race. A tiny capacity forces constant wrap,
// full-ring backpressure, and waiter park/wake cycles; mixing the blocking
// and Try variants on both sides exercises every ordering the protocol
// allows. Sequence checks make lost or reordered items failures
// even when the race detector stays quiet.
func TestRingStress(t *testing.T) {
	if os.Getenv("DSP_STRESS") == "" {
		t.Skip("set DSP_STRESS=1 to run the high-iteration stress test")
	}

	t.Run("SPSC", func(t *testing.T) {
		// Sized for a single race-instrumented core: every full/empty
		// encounter costs a spin-yield phase, so the item count buys park
		// cycles, not throughput.
		const total = 1 << 17
		r := NewSPSC[uint64](32, nil)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := uint64(0)
			for next < total {
				if next%2 == 0 {
					r.Push(next)
					next++
				} else if r.TryPush(next) {
					next++
				} else {
					runtime.Gosched()
				}
			}
		}()

		got := uint64(0)
		check := func(v uint64) {
			if v != got {
				t.Fatalf("popped %d, want %d", v, got)
			}
			got++
		}
		for got < total {
			if got%2 == 0 {
				check(r.Pop())
			} else if v, ok := r.TryPop(); ok {
				check(v)
			} else {
				runtime.Gosched()
			}
		}
		wg.Wait()
		if v, ok := r.TryPop(); ok {
			t.Fatalf("ring not empty after drain: %d", v)
		}
	})

	t.Run("MPSC", func(t *testing.T) {
		const (
			producers = 4
			perProd   = 1 << 14
		)
		m := NewMPSC[uint64]()
		lanes := make([]*SPSC[uint64], producers)
		for i := range lanes {
			lanes[i] = m.AddProducer(32)
		}
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				lane := lanes[p]
				for seq := uint64(0); seq < perProd; seq++ {
					v := uint64(p)<<32 | seq
					if seq%2 == 0 {
						lane.Push(v)
					} else {
						for !lane.TryPush(v) {
							runtime.Gosched()
						}
					}
				}
			}(p)
		}

		next := make([]uint64, producers)
		for n := 0; n < producers*perProd; n++ {
			v, lane := m.Pop()
			p := int(v >> 32)
			if p != lane {
				t.Fatalf("value tagged producer %d arrived on lane %d", p, lane)
			}
			if seq := v & (1<<32 - 1); seq != next[p] {
				t.Fatalf("lane %d: got seq %d, want %d", p, seq, next[p])
			}
			next[p]++
		}
		wg.Wait()
		if _, _, ok := m.TryPop(); ok {
			t.Fatal("MPSC not empty after drain")
		}
	})
}
