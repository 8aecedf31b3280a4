package engine

import (
	"math/rand"
	"testing"
)

// refSimQueue is the simQueue that allocated its whole ring up front: a
// capacity-slot []Msg indexed by slot number. It is kept as the reference
// simQueue's on-demand storage must match; the scheduler wake-ups, which
// the storage change left alone, are dropped.
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

// TestSimQueueMatchesFixedRing drives simQueue and the fixed ring through
// the same random pushes and pops, in phases that fill the queue, drain it
// and hold it part full while the ring wraps, at the profile's default
// capacity and at profile QueueCaps that are not powers of two. Every
// operation must answer alike: full or empty, the same slot (and so the
// same simulated address), the same message and the same size. The
// storage may never hold more than twice the most messages queued at once
// (or 8), nor more than the capacity.
func TestSimQueueMatchesFixedRing(t *testing.T) {
	for _, queueCap := range []int{0, 1, 3, 100, 1000} {
		sys := Storm()
		sys.QueueCap = queueCap
		capacity := SimConfig{System: sys}.Resolve().System.QueueCap
		rng := rand.New(rand.NewSource(int64(capacity)))
		q, _, _ := newTestQueue(capacity)
		ref := newRefSimQueue(capacity, q.baseAddr)
		id, peak := 0, 0
		var full, empty, wraps int
		for phase := 0; phase < 24; phase++ {
			pushP := []float64{0.5, 0.9, 0.1}[phase%3] // wrap part full, fill, drain
			for op := 0; op < 3*capacity+20; op++ {
				if rng.Float64() < pushP {
					id++
					m := Msg{FromGlobal: id, EnqueuedAt: int64(rng.Intn(1 << 20))}
					got, gotOK := q.tryPush(m)
					want, wantOK := ref.tryPush(m)
					if got != want || gotOK != wantOK {
						t.Fatalf("cap %d: push %d = slot %d ok %v, fixed ring slot %d ok %v", capacity, id, got, gotOK, want, wantOK)
					}
					if gotOK && q.slotAddr(got) != ref.slotAddr(want) {
						t.Fatalf("cap %d: slot %d at %#x, fixed ring at %#x", capacity, got, q.slotAddr(got), ref.slotAddr(want))
					}
					if !gotOK {
						full++
					}
				} else {
					got, gotSlot, gotOK := q.tryPop()
					want, wantSlot, wantOK := ref.tryPop()
					if got.FromGlobal != want.FromGlobal || got.EnqueuedAt != want.EnqueuedAt ||
						gotSlot != wantSlot || gotOK != wantOK {
						t.Fatalf("cap %d: pop = message %d slot %d ok %v, fixed ring message %d slot %d ok %v",
							capacity, got.FromGlobal, gotSlot, gotOK, want.FromGlobal, wantSlot, wantOK)
					}
					switch {
					case !gotOK:
						empty++
					case gotSlot == capacity-1:
						wraps++
					}
				}
				if q.size() != ref.size() {
					t.Fatalf("cap %d: size %d, fixed ring %d", capacity, q.size(), ref.size())
				}
				peak = max(peak, q.size())
				if len(q.buf) > capacity || len(q.buf) > max(2*peak, 8) {
					t.Fatalf("cap %d: storage holds %d slots after a peak of %d messages", capacity, len(q.buf), peak)
				}
			}
		}
		if full == 0 || empty == 0 || wraps < 2 {
			t.Fatalf("cap %d: the sequence found the queue full %d times, empty %d times and wrapped %d times",
				capacity, full, empty, wraps)
		}
	}
}
