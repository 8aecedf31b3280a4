package hw

import "streamscale/internal/sim"

// Channel models a bandwidth-limited transfer resource (a DRAM channel
// group or one direction of a QPI link) as a windowed token bucket: each
// window of W cycles offers rate*W bytes of capacity, and a transfer that
// finds its window exhausted spills into later windows, observing the spill
// as queueing delay. Unlike a FIFO server, the model is insensitive to the
// order requests arrive in, which matters because the discrete-event
// engine processes overlapping execution windows out of order.
type Channel struct {
	rate   float64 // bytes per cycle
	window sim.Cycles

	// ring holds the bytes consumed per window for windows [base,
	// base+len(ring)), window i in ring[i&(len(ring)-1)]; every other slot
	// is zero. Its length is a power of two (or zero before the first
	// transfer), grown by doubling up to the span retainWindows and
	// maxSpillWindows allow, and kept across Reset.
	base int64
	ring []float64

	bytes uint64
}

// retainWindows is how much window history the channel keeps behind the
// highest window seen. Discrete-event steps may overshoot their quantum by
// one indivisible operation (tens of millions of cycles for heavy tuples),
// so requests can arrive that far "late" in kernel order; their windows
// must still exist or they would be clamped forward and charged a phantom
// wait.
const retainWindows = 1 << 15 // ~268 M cycles of history at the default window

// DefaultChannelWindow is the accounting window: ~3.4 us at 2.4 GHz, fine
// enough to capture bursts, coarse enough to absorb event reordering.
const DefaultChannelWindow sim.Cycles = 8192

// maxSpillWindows caps how far demand may queue ahead; beyond this the
// model saturates (requests still pay the maximum wait). The cap must
// comfortably exceed the largest single transfer's occupancy (a ~150 MB
// sweep over QPI spans ~5600 windows) or aggregate bandwidth would leak
// past the channel's rate.
const maxSpillWindows = 1 << 16

// NewChannel creates a channel with the given peak rate in bytes/cycle.
func NewChannel(bytesPerCycle float64) *Channel {
	return NewChannelWindow(bytesPerCycle, DefaultChannelWindow)
}

// NewChannelWindow creates a channel with an explicit accounting window.
func NewChannelWindow(bytesPerCycle float64, window sim.Cycles) *Channel {
	if bytesPerCycle <= 0 {
		panic("hw: non-positive channel rate")
	}
	if window <= 0 {
		panic("hw: non-positive channel window")
	}
	return &Channel{rate: bytesPerCycle, window: window}
}

// Transfer books a transfer of the given size at time now and returns the
// queueing delay the requester observes (fixed access latency is charged by
// the caller).
//
//dsp:hotpath
func (ch *Channel) Transfer(now sim.Cycles, bytes int) sim.Cycles {
	if bytes <= 0 {
		return 0
	}
	ch.bytes += uint64(bytes)
	w := int64(now / ch.window)
	// Advance the base only far enough to bound memory, keeping
	// retainWindows of history for late-arriving requests.
	if w-ch.base > retainWindows {
		ch.advance(w - retainWindows)
	}
	if w < ch.base {
		w = ch.base // request older than all retained history
	}
	capPerWin := ch.rate * float64(ch.window)
	remaining := float64(bytes)
	i := w
	for remaining > 0 {
		if i-ch.base >= int64(len(ch.ring)) {
			ch.grow(i - ch.base + 1)
		}
		used := &ch.ring[i&int64(len(ch.ring)-1)]
		free := capPerWin - *used
		if free > 0 {
			take := free
			if remaining < take {
				take = remaining
			}
			*used += take
			remaining -= take
		}
		if remaining > 0 {
			if i-w >= maxSpillWindows {
				// Saturated: charge the cap and stop accounting.
				break
			}
			i++
		}
	}
	if i == w {
		return 0
	}
	wait := sim.Cycles(i)*ch.window - now
	if wait < 0 {
		wait = 0
	}
	return wait
}

// advance drops the windows before newBase, zeroing their slots for reuse.
func (ch *Channel) advance(newBase int64) {
	if n := newBase - ch.base; n >= int64(len(ch.ring)) {
		clear(ch.ring)
	} else {
		for i := ch.base; i < newBase; i++ {
			ch.ring[i&int64(len(ch.ring)-1)] = 0
		}
	}
	ch.base = newBase
}

// grow doubles the ring until it spans n windows from the base.
func (ch *Channel) grow(n int64) {
	size := int64(max(len(ch.ring), 1<<10))
	for size < n {
		size *= 2
	}
	ring := make([]float64, size)
	for i := ch.base; i < ch.base+int64(len(ch.ring)); i++ {
		ring[i&(size-1)] = ch.ring[i&int64(len(ch.ring)-1)]
	}
	ch.ring = ring
}

// Reset returns the channel to its just-built state, keeping the ring's
// storage.
func (ch *Channel) Reset() {
	clear(ch.ring)
	ch.base, ch.bytes = 0, 0
}

// Bytes returns the total bytes transferred.
func (ch *Channel) Bytes() uint64 { return ch.bytes }

// BusyCycles returns the cycles of channel occupancy implied by the bytes
// moved at peak rate.
func (ch *Channel) BusyCycles() sim.Cycles { return sim.Cycles(float64(ch.bytes) / ch.rate) }

// Utilization returns implied occupancy over elapsed simulated time.
func (ch *Channel) Utilization(elapsed sim.Cycles) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(ch.BusyCycles()) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
