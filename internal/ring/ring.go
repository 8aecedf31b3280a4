// Package ring provides the bounded lock-free queues of the native
// runtime's data path: a single-producer/single-consumer (SPSC) ring and
// an MPSC front composed of per-producer SPSC lanes
// (mpsc.go). The design follows the shared-memory engines the paper's
// successors converged on (BriskStream, Hazelcast Jet): no locks on the
// data path, cache-line-padded head/tail indices so producer and consumer
// never write the same line, cached peer indices so the common case reads
// only core-local state, and a spin-then-park waiter so a stalled peer
// costs a futex-style sleep instead of a burned core.
package ring

import (
	"runtime"
	"sync/atomic"
)

// cacheLine is the assumed coherence granule; padding head and tail onto
// separate lines stops producer/consumer index updates from ping-ponging a
// single line between cores (the classic false-sharing failure of naive
// ring buffers).
const cacheLine = 64

// spinYields bounds the cooperative-spin phase of blocking operations:
// Push/Pop retry this many times (yielding the processor between attempts)
// before arming the waiter and parking on its channel. Yielding rather
// than busy-spinning keeps single-core and oversubscribed hosts live.
const spinYields = 24

// Waiter is a spin-then-park rendezvous between one sleeper and any number
// of signalers. The sleeper follows arm → recheck → park; Signal wakes an
// armed sleeper with one buffered channel send. Both sides tolerate
// spurious wakeups (the sleeper always rechecks its condition), which
// keeps the protocol free of the lost-wakeup race: a Signal that lands
// between recheck and park leaves a token the park consumes immediately.
type Waiter struct {
	armed atomic.Int32
	// ch is allocated once in init, before the waiter is shared; the
	// channel itself synchronizes park/wake after that.
	ch chan struct{} //dsp:owned(setup)
}

// NewWaiter returns a ready-to-use waiter.
func NewWaiter() *Waiter {
	w := &Waiter{}
	w.init()
	return w
}

func (w *Waiter) init() { w.ch = make(chan struct{}, 1) }

// Signal wakes the sleeper if one is armed. The fast path — nobody is
// parked, the common case on a busy ring — is a single atomic load.
//
//dsp:hotpath
func (w *Waiter) Signal() {
	if w.armed.Load() != 0 && w.armed.Swap(0) != 0 {
		select {
		case w.ch <- struct{}{}: //dsplint:ignore hotsync the park-wake handoff itself: a send on a 1-buffered channel with a default case never blocks
		default:
		}
	}
}

func (w *Waiter) arm()    { w.armed.Store(1) }
func (w *Waiter) disarm() { w.armed.Store(0) }
func (w *Waiter) park()   { <-w.ch }

// SPSC is a bounded single-producer/single-consumer ring queue. Capacity
// is rounded up to a power of two so slot indexing is a mask, not a
// modulo. head (next slot to pop) is written only by the consumer; tail
// (next slot to push) only by the producer. Each side keeps a cached copy
// of the other's index and refreshes it only when the cached value implies
// the ring is full/empty — in steady state a push or pop touches no
// shared-written cache line but its own.
//
// The layout below is a checked property (dsplint's linelayout analyzer,
// plus TestSPSCFieldLineLayout): the consumer-written pair (head,
// cachedTail) and the producer-written pair (tail, cachedHead) each start
// on their own 64-byte line. The original padding arithmetic assumed head
// began line-aligned when it actually began at offset 120, which put
// cachedTail and tail — a consumer-written and a producer-written index —
// on the same line: false sharing on the two hottest words in the ring.
//
//dsp:padded
type SPSC[T any] struct {
	buf  []T     // 24 bytes: slice header, layout is T-independent
	mask uint64  // 32
	cons *Waiter // 40: parked consumer (shared across lanes in an MPSC)
	prod Waiter  // 56: parked producer (exclusive to this ring)

	_          [cacheLine - 56%cacheLine]byte // align the consumer line
	head       atomic.Uint64                  //dsp:owned(consumer)
	cachedTail uint64                         //dsp:owned(consumer)
	_          [cacheLine - 16]byte           // separate the producer line
	tail       atomic.Uint64                  //dsp:owned(producer)
	cachedHead uint64                         //dsp:owned(producer)
	_          [cacheLine - 16]byte           // keep trailing neighbors off the producer line
}

// NewSPSC returns a ring with at least the requested capacity (rounded up
// to a power of two, minimum 2). cons is the consumer-side waiter; pass
// nil for a dedicated one, or a shared waiter when the ring is one lane of
// an MPSC front.
func NewSPSC[T any](capacity int, cons *Waiter) *SPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	if cons == nil {
		cons = NewWaiter()
	}
	r := &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1), cons: cons}
	r.prod.init()
	return r
}

// Cap returns the ring's (power-of-two) capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the number of buffered items (racy snapshot).
func (r *SPSC[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// TryPush appends v if the ring has room, reporting whether it did.
//
//dsp:hotpath
func (r *SPSC[T]) TryPush(v T) bool {
	t := r.tail.Load()
	if t-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	r.cons.Signal()
	return true
}

// TryPop removes and returns the oldest item, reporting whether one was
// available. The vacated slot is zeroed so the ring never retains
// references past consumption.
//
//dsp:hotpath
func (r *SPSC[T]) TryPop() (T, bool) {
	var zero T
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h == r.cachedTail {
			return zero, false
		}
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero
	r.head.Store(h + 1)
	r.prod.Signal()
	return v, true
}

// Push blocks until v is enqueued: spin-with-yield first, then park on the
// producer waiter until the consumer frees a slot. This is the native
// runtime's credit-based backpressure — a producer ahead of its consumer
// sleeps instead of growing a queue or burning a core.
//
//dsp:hotpath
func (r *SPSC[T]) Push(v T) {
	for i := 0; i < spinYields; i++ {
		if r.TryPush(v) {
			return
		}
		runtime.Gosched()
	}
	for {
		r.prod.arm()
		if r.TryPush(v) {
			r.prod.disarm()
			return
		}
		r.prod.park()
	}
}

// Pop blocks until an item is available. Only valid when the ring owns its
// consumer waiter (not a shared MPSC lane — park there via MPSC.Pop).
//
//dsp:hotpath
func (r *SPSC[T]) Pop() T {
	for i := 0; i < spinYields; i++ {
		if v, ok := r.TryPop(); ok {
			return v
		}
		runtime.Gosched()
	}
	for {
		r.cons.arm()
		if v, ok := r.TryPop(); ok {
			r.cons.disarm()
			return v
		}
		r.cons.park()
	}
}
