package engine

import (
	"math/rand"
	"testing"
)

// refSimQueue is the simQueue that allocated its whole ring up front: a
// capacity-slot []Msg indexed by slot number. It is kept as the reference
// simQueue's chunked storage must match; the scheduler wake-ups, which
// the storage changes left alone, are dropped.
type refSimQueue struct {
	buf       []Msg
	head, n   int
	baseAddr  uint64
	slotBytes int
}

func newRefSimQueue(capacity int, base uint64) *refSimQueue {
	return &refSimQueue{
		buf:       make([]Msg, capacity),
		baseAddr:  base,
		slotBytes: 32,
	}
}

func (q *refSimQueue) slotAddr(i int) uint64 {
	return q.baseAddr + uint64(i)*uint64(q.slotBytes)
}

func (q *refSimQueue) tryPush(m Msg) (slot int, ok bool) {
	if q.n == len(q.buf) {
		return 0, false
	}
	slot = (q.head + q.n) % len(q.buf)
	q.buf[slot] = m
	q.n++
	return slot, true
}

func (q *refSimQueue) tryPop() (m Msg, slot int, ok bool) {
	if q.n == 0 {
		return Msg{}, 0, false
	}
	slot = q.head
	m = q.buf[slot]
	q.buf[slot] = Msg{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return m, slot, true
}

func (q *refSimQueue) size() int { return q.n }

// queuePair drives a simQueue, on a pool of its own, and the fixed ring
// through the same calls and fails the test unless they answer alike.
type queuePair struct {
	q    *simQueue
	ref  *refSimQueue
	peak int // the most messages queued at once
}

func newQueuePair(capacity int) *queuePair {
	q, _, _ := newTestQueue(capacity)
	return &queuePair{q: q, ref: newRefSimQueue(capacity, q.baseAddr)}
}

// push pushes m onto both queues and reports whether it was queued.
func (p *queuePair) push(t *testing.T, m Msg) bool {
	t.Helper()
	got, gotOK := p.q.tryPush(m)
	want, wantOK := p.ref.tryPush(m)
	if got != want || gotOK != wantOK {
		t.Fatalf("cap %d: push %d = slot %d ok %v, fixed ring slot %d ok %v", p.q.capacity, m.FromGlobal, got, gotOK, want, wantOK)
	}
	if gotOK && p.q.slotAddr(got) != p.ref.slotAddr(want) {
		t.Fatalf("cap %d: slot %d at %#x, fixed ring at %#x", p.q.capacity, got, p.q.slotAddr(got), p.ref.slotAddr(want))
	}
	p.check(t)
	return gotOK
}

// pop pops from both queues and returns the slot popped, if any.
func (p *queuePair) pop(t *testing.T) (slot int, ok bool) {
	t.Helper()
	got, gotSlot, gotOK := p.q.tryPop()
	want, wantSlot, wantOK := p.ref.tryPop()
	if got.FromGlobal != want.FromGlobal || got.EnqueuedAt != want.EnqueuedAt ||
		gotSlot != wantSlot || gotOK != wantOK {
		t.Fatalf("cap %d: pop = message %d slot %d ok %v, fixed ring message %d slot %d ok %v",
			p.q.capacity, got.FromGlobal, gotSlot, gotOK, want.FromGlobal, wantSlot, wantOK)
	}
	p.check(t)
	return gotSlot, gotOK
}

// check requires equal sizes, and storage of at most ⌈peak/chunkLen⌉ + 1
// chunks: held by the queue or spare in its pool. A drained queue holds
// no chunk, and its spare chunks hold no message.
func (p *queuePair) check(t *testing.T) {
	t.Helper()
	n := p.q.size()
	if n != p.ref.size() {
		t.Fatalf("cap %d: size %d, fixed ring %d", p.q.capacity, n, p.ref.size())
	}
	p.peak = max(p.peak, n)
	pool := p.q.pool
	made := pool.held
	for c := pool.free; c != nil; c = c.next {
		made++
	}
	if bound := (p.peak+chunkLen-1)/chunkLen + 1; made > bound {
		t.Fatalf("cap %d: %d chunks made (%d held) after a peak of %d messages, above %d", p.q.capacity, made, pool.held, p.peak, bound)
	}
	if n > 0 {
		return
	}
	if pool.held != 0 {
		t.Fatalf("cap %d: the drained queue holds %d chunks", p.q.capacity, pool.held)
	}
	for c := pool.free; c != nil; c = c.next {
		for i := range c.items {
			if m := &c.items[i]; m.FromGlobal != 0 || m.EnqueuedAt != 0 {
				t.Fatalf("cap %d: a spare chunk still holds message %d", p.q.capacity, m.FromGlobal)
			}
		}
	}
}

// TestSimQueueMatchesFixedRing drives simQueue and the fixed ring through
// the same random pushes and pops, in phases that fill the queue, drain it
// and hold it part full while the ring wraps, at the profile's default
// capacity and at profile QueueCaps that are not powers of two. Every
// operation must answer alike: full or empty, the same slot (and so the
// same simulated address), the same message and the same size. The
// storage may never take more than ⌈peak/chunkLen⌉ + 1 chunks from its
// pool, where peak is the most messages queued at once, and a drained
// queue holds none.
func TestSimQueueMatchesFixedRing(t *testing.T) {
	for _, queueCap := range []int{0, 1, 3, 100, 1000} {
		sys := Storm()
		sys.QueueCap = queueCap
		capacity := SimConfig{System: sys}.Resolve().System.QueueCap
		rng := rand.New(rand.NewSource(int64(capacity)))
		p := newQueuePair(capacity)
		id := 0
		var full, empty, wraps int
		for phase := 0; phase < 24; phase++ {
			pushP := []float64{0.5, 0.9, 0.1}[phase%3] // wrap part full, fill, drain
			for op := 0; op < 3*capacity+20; op++ {
				if rng.Float64() < pushP {
					id++
					if !p.push(t, Msg{FromGlobal: id, EnqueuedAt: int64(rng.Intn(1 << 20))}) {
						full++
					}
				} else {
					switch slot, ok := p.pop(t); {
					case !ok:
						empty++
					case slot == capacity-1:
						wraps++
					}
				}
			}
		}
		if full == 0 || empty == 0 || wraps < 2 {
			t.Fatalf("cap %d: the sequence found the queue full %d times, empty %d times and wrapped %d times",
				capacity, full, empty, wraps)
		}
	}
}

// FuzzSimQueueMatchesFixedRing holds simQueue to the fixed ring on every
// push and pop of a decoded sequence, as TestSimQueueMatchesFixedRing does
// on random ones: the same slot, message, size and full or empty answer at
// every step, at most ⌈peak/chunkLen⌉ + 1 chunks made, and no chunk held
// once the queue drains.
//
// The first two bytes give the capacity: 1 plus the first byte plus the
// second byte's low two bits times 256, so 1 to 1,024 slots. Each further
// byte is a run of 1 + byte>>1 calls, pushes of the next messages when its
// low bit is 0 and pops when it is 1.
func FuzzSimQueueMatchesFixedRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		p := newQueuePair(1 + int(in[0]) + int(in[1]&3)<<8)
		id := 0
		for _, op := range in[2:] {
			for range 1 + int(op>>1) {
				if op&1 == 0 {
					id++
					p.push(t, Msg{FromGlobal: id, EnqueuedAt: int64(id) * 3})
				} else {
					p.pop(t)
				}
			}
		}
	})
}
