package ring

import "runtime"

// MPSC multiplexes many producers onto one consumer without any shared
// mutable state between producers: each producer owns a private SPSC lane,
// and the consumer drains the lanes round-robin. This is the structure
// BriskStream and Jet use instead of a true multi-producer queue — it
// avoids CAS contention on a shared tail entirely, at the cost of a small
// round-robin scan on the consumer side (bounded by the lane count, which
// in a topology is the producer-executor fan-in of one operator).
//
// AddProducer is build-time only; it must not race with Pop.
type MPSC[T any] struct {
	cons *Waiter
	// lanes grows only during topology construction, before any producer
	// or the consumer runs.
	lanes []*SPSC[T] //dsp:owned(setup)
	// next is the round-robin drain cursor, touched only by the single
	// consumer goroutine.
	next int //dsp:owned(consumer)
}

// NewMPSC returns an empty MPSC front.
func NewMPSC[T any]() *MPSC[T] { return &MPSC[T]{cons: NewWaiter()} }

// AddProducer creates and returns a new producer lane with at least the
// given capacity. The lane shares the front's consumer waiter, so a push
// into any lane can wake the parked consumer.
func (m *MPSC[T]) AddProducer(capacity int) *SPSC[T] {
	l := NewSPSC[T](capacity, m.cons)
	m.lanes = append(m.lanes, l)
	return l
}

// TryPop scans the lanes round-robin from the cursor and returns the first
// available item plus the index of the lane it came from. The cursor
// persists across calls so a chatty lane cannot starve the others.
//
//dsp:hotpath
func (m *MPSC[T]) TryPop() (T, int, bool) {
	for i := 0; i < len(m.lanes); i++ {
		lane := m.next
		m.next++
		if m.next == len(m.lanes) {
			m.next = 0
		}
		if v, ok := m.lanes[lane].TryPop(); ok {
			return v, lane, true
		}
	}
	var zero T
	return zero, 0, false
}

// Pop blocks until an item is available on any lane, returning it and its
// lane index.
//
//dsp:hotpath
func (m *MPSC[T]) Pop() (T, int) {
	for i := 0; i < spinYields; i++ {
		if v, lane, ok := m.TryPop(); ok {
			return v, lane
		}
		runtime.Gosched()
	}
	for {
		m.cons.arm()
		if v, lane, ok := m.TryPop(); ok {
			m.cons.disarm()
			return v, lane
		}
		m.cons.park()
	}
}
