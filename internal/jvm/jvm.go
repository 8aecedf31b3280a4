// Package jvm models the runtime costs of a JVM-based stream processing
// system: a garbage-collected heap with an optional NUMA-aware allocator
// (the HotSpot -XX:+UseNUMA behaviour), generational collection with either
// a G1-like mostly-concurrent collector or a parallel stop-the-world
// collector, and the pointer-chasing data-reference model (object headers
// and invokevirtual method-table lookups) the paper identifies as the
// source of TLB pressure.
package jvm

import (
	"fmt"

	"streamscale/internal/hw"
	"streamscale/internal/sim"
)

// CollectorKind selects the garbage collector model.
type CollectorKind int

const (
	// G1GC models the Garbage-First collector: small pauses, most marking
	// and copying concurrent with mutators.
	G1GC CollectorKind = iota
	// ParallelGC models the throughput collector: full stop-the-world
	// young collections.
	ParallelGC
)

func (k CollectorKind) String() string {
	switch k {
	case G1GC:
		return "g1"
	case ParallelGC:
		return "parallel"
	}
	return fmt.Sprintf("collector(%d)", int(k))
}

// HeaderBytes is the size of a Java object header (64-bit, compressed oops
// off, as on the paper's 512 GB server).
const HeaderBytes = 16

// Config tunes the heap model.
type Config struct {
	Kind CollectorKind
	// YoungBytes is the young-generation size; a minor collection runs
	// every time this much has been allocated.
	YoungBytes uint64
	// SurvivorFraction is the fraction of the young generation still live
	// at collection time. Streaming tuples die young, so this is small.
	SurvivorFraction float64
	// CopyCyclesPerByte is the cost of evacuating one live byte.
	CopyCyclesPerByte float64
	// ScanCyclesPerByte is the cost of scanning one allocated byte for
	// liveness (root + card scanning amortized).
	ScanCyclesPerByte float64
	// PauseBase is the fixed per-collection cost (safepoint, root set).
	PauseBase sim.Cycles
	// MutatorVisibleFraction is the share of collection work that stalls
	// mutators (low for the mostly-concurrent G1, 1.0 for ParallelGC).
	MutatorVisibleFraction float64
	// UseNUMA enables the NUMA-aware allocator: objects are allocated on
	// the allocating thread's socket. When off, allocation interleaves
	// across sockets, as an unaware heap effectively does.
	UseNUMA bool
}

// G1 returns the G1GC configuration used in the paper's Table III setup.
// The per-byte cost constants are calibrated so that, at the allocation
// intensity of the benchmark applications (~100-150 cycles of execution per
// allocated byte), mutator-visible GC lands in the paper's observed 1-3%
// band; see EXPERIMENTS.md.
func G1() Config {
	return Config{
		Kind:                   G1GC,
		YoungBytes:             256 << 20,
		SurvivorFraction:       0.02,
		CopyCyclesPerByte:      1.4,
		ScanCyclesPerByte:      3.0,
		PauseBase:              200_000,
		MutatorVisibleFraction: 0.35,
		UseNUMA:                true,
	}
}

// Parallel returns the parallelGC configuration from the paper's §V-D
// sanity check: full stop-the-world young collections, roughly 6x the
// mutator-visible cost of G1 (the paper measures 10-15% vs 1-3%).
func Parallel() Config {
	c := G1()
	c.Kind = ParallelGC
	c.SurvivorFraction = 0.03
	c.CopyCyclesPerByte = 1.6
	c.ScanCyclesPerByte = 6.5
	c.MutatorVisibleFraction = 1.0
	return c
}

// A socket's data window (hw.DataWindowBytes, 16 GB) holds the heap's
// regions, each base a multiple of 2^28 as hw's layout requires: the
// circular young generation in its first GB, the tenured region from
// tenuredBase (14 GB of it) and, on socket 0, the metaspace in its last
// GB. The young region needs only YoungBytes over the socket count (a
// simulation keeps YoungBytes below 64 MB), so the tenured region takes
// the rest: at 120 MB of scan scratch per map-match executor, a
// one-socket tm cell runs up to scale 14.
const (
	tenuredBase   = uint64(1) << 30
	metaspaceBase = hw.DataWindowBytes - 1<<30
)

// Heap is the simulated JVM heap. It is driven from the single-threaded
// simulation, so it needs no locking.
//
// The young generation is modelled as a circular per-socket region: after a
// collection its memory is reused, so allocation addresses recur with the
// young generation's period. This is what makes allocation writes land on
// cache-warm lines, as they do on a real generational collector, instead of
// an endless stream of compulsory DRAM misses.
type Heap struct {
	cfg     Config
	sockets int

	cursors   []uint64 // per-socket young-gen bump pointers (circular)
	tenured   []uint64 // per-socket tenured bump pointers
	youngPer  uint64   // per-socket young region size
	rr        int      // round-robin cursor for the non-NUMA allocator
	sinceGC   uint64
	allocated uint64

	minorGCs  int64
	gcCycles  sim.Cycles // mutator-visible GC cycles charged
	gcAllWork sim.Cycles // total collection work including concurrent
}

// NewHeap creates a heap spanning the given number of sockets.
func NewHeap(sockets int, cfg Config) *Heap {
	if sockets <= 0 {
		panic("jvm: heap needs at least one socket")
	}
	if cfg.YoungBytes == 0 {
		panic("jvm: zero young generation")
	}
	youngPer := cfg.YoungBytes / uint64(sockets)
	if youngPer < 64<<10 {
		youngPer = 64 << 10
	}
	if youngPer > tenuredBase {
		panic(fmt.Sprintf("jvm: a young region of %d bytes per socket runs into the tenured region at %#x", youngPer, tenuredBase))
	}
	return &Heap{
		cfg: cfg, sockets: sockets,
		cursors:  make([]uint64, sockets),
		tenured:  make([]uint64, sockets),
		youngPer: youngPer,
	}
}

// Alloc allocates size bytes (plus object header) for a thread running on
// the given socket. It returns the object's simulated address and any
// mutator-visible GC pause triggered by crossing the young-generation
// boundary; the caller charges the pause to the allocating thread, which is
// where a safepoint would land.
func (h *Heap) Alloc(socket, size int) (addr uint64, pause sim.Cycles) {
	if size < 0 {
		panic("jvm: negative allocation")
	}
	total := uint64(size + HeaderBytes)
	sk := socket
	if !h.cfg.UseNUMA {
		sk = h.rr
		h.rr = (h.rr + 1) % h.sockets
	}
	// Bump allocation, 16-byte aligned like HotSpot TLABs; the region is
	// circular with the young generation's per-socket period.
	cur := (h.cursors[sk] + 15) &^ 15
	if cur+total > h.youngPer {
		cur = 0
	}
	h.cursors[sk] = cur + total
	addr = hw.DataAddr(sk, cur)

	h.sinceGC += total
	h.allocated += total
	if h.sinceGC >= h.cfg.YoungBytes {
		h.sinceGC -= h.cfg.YoungBytes
		pause = h.collect()
	}
	return addr, pause
}

// AllocTenured allocates long-lived memory (operator state, queue rings) on
// the given socket. Tenured memory is never reused or collected by the
// minor-GC model. It panics if the allocation would run into the
// metaspace's GB of the window.
func (h *Heap) AllocTenured(socket, size int) uint64 {
	if size < 0 {
		panic("jvm: negative allocation")
	}
	cur := (h.tenured[socket] + 63) &^ 63
	if uint64(size) > metaspaceBase-tenuredBase-cur {
		panic(fmt.Sprintf("jvm: a tenured allocation of %d bytes at %#x on socket %d runs into the metaspace at %#x",
			size, tenuredBase+cur, socket, metaspaceBase))
	}
	h.tenured[socket] = cur + uint64(size)
	return hw.DataAddr(socket, tenuredBase+cur)
}

// collect models one minor collection and returns the mutator-visible pause.
func (h *Heap) collect() sim.Cycles {
	h.minorGCs++
	live := float64(h.cfg.YoungBytes) * h.cfg.SurvivorFraction
	work := h.cfg.PauseBase +
		sim.Cycles(live*h.cfg.CopyCyclesPerByte) +
		sim.Cycles(float64(h.cfg.YoungBytes)*h.cfg.ScanCyclesPerByte)
	h.gcAllWork += work
	visible := sim.Cycles(float64(work) * h.cfg.MutatorVisibleFraction)
	h.gcCycles += visible
	return visible
}

// MinorGCs returns the number of minor collections so far.
func (h *Heap) MinorGCs() int64 { return h.minorGCs }

// GCCycles returns total mutator-visible GC cycles.
func (h *Heap) GCCycles() sim.Cycles { return h.gcCycles }

// AllocatedBytes returns total bytes allocated.
func (h *Heap) AllocatedBytes() uint64 { return h.allocated }

// Config returns the heap's configuration.
func (h *Heap) Config() Config { return h.cfg }
