package ring

import (
	"fmt"
	"sync"
	"testing"
)

func TestSPSCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024},
	} {
		if got := NewSPSC[int](tc.ask, nil).Cap(); got != tc.want {
			t.Errorf("Cap(%d) = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// Single-threaded wraparound: fill and drain a tiny ring many times so the
// indices wrap the mask repeatedly.
func TestSPSCWraparound(t *testing.T) {
	r := NewSPSC[int](4, nil)
	next := 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < r.Cap(); i++ {
			if !r.TryPush(next + i) {
				t.Fatalf("round %d: push %d refused on non-full ring", round, i)
			}
		}
		if r.TryPush(-1) {
			t.Fatalf("round %d: push accepted on full ring", round)
		}
		for i := 0; i < r.Cap(); i++ {
			v, ok := r.TryPop()
			if !ok || v != next+i {
				t.Fatalf("round %d: pop = (%d,%v), want (%d,true)", round, v, ok, next+i)
			}
		}
		if _, ok := r.TryPop(); ok {
			t.Fatalf("round %d: pop succeeded on empty ring", round)
		}
		next += r.Cap()
	}
}

// Concurrent FIFO: everything pushed arrives in order, through a ring much
// smaller than the item count (so both blocking paths engage).
func TestSPSCConcurrentFIFO(t *testing.T) {
	const items = 100_000
	r := NewSPSC[int](8, nil)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < items; i++ {
			if v := r.Pop(); v != i {
				done <- errf("pop %d: got %d", i, v)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < items; i++ {
		r.Push(i)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Pointer slots must be zeroed on pop so the ring does not retain the last
// Cap() references forever.
func TestSPSCPopClearsSlot(t *testing.T) {
	r := NewSPSC[*int](2, nil)
	v := new(int)
	r.TryPush(v)
	r.TryPop()
	for _, slot := range r.buf {
		if slot != nil {
			t.Fatal("popped slot still holds its pointer")
		}
	}
}

func TestMPSCRoundRobinAndLaneIndex(t *testing.T) {
	const producers, items = 4, 10_000
	m := NewMPSC[[2]int]()
	lanes := make([]*SPSC[[2]int], producers)
	for p := range lanes {
		lanes[p] = m.AddProducer(8)
	}
	var wg sync.WaitGroup
	for p := range lanes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				lanes[p].Push([2]int{p, i})
			}
		}(p)
	}
	seen := make([]int, producers) // next expected sequence per producer
	for k := 0; k < producers*items; k++ {
		v, lane := m.Pop()
		if v[0] != lane {
			t.Fatalf("item from producer %d reported on lane %d", v[0], lane)
		}
		if v[1] != seen[lane] {
			t.Fatalf("lane %d out of order: got %d, want %d", lane, v[1], seen[lane])
		}
		seen[lane]++
	}
	wg.Wait()
	if _, _, ok := m.TryPop(); ok {
		t.Fatal("items left after draining all lanes")
	}
}

// A parked consumer must be woken by a push on any lane (the shared-waiter
// lost-wakeup race this protocol exists to prevent).
func TestMPSCParkedConsumerWakes(t *testing.T) {
	m := NewMPSC[int]()
	lane := m.AddProducer(2)
	got := make(chan int)
	go func() {
		v, _ := m.Pop() // parks: ring is empty
		got <- v
	}()
	lane.Push(42)
	if v := <-got; v != 42 {
		t.Fatalf("woke with %d, want 42", v)
	}
}

// Ring transfer must not allocate in steady state (the acceptance bar the
// hotalloc lint guards statically; this checks it dynamically).
func TestRingTransferZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := NewSPSC[int](64, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			r.TryPush(i)
		}
		for i := 0; i < 32; i++ {
			r.TryPop()
		}
	})
	if allocs != 0 {
		t.Fatalf("ring transfer allocates %.1f per round, want 0", allocs)
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
